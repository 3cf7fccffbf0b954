package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flashps/internal/batching"
	"flashps/internal/faults"
	"flashps/internal/perfmodel"
	"flashps/internal/workload"
)

// TestLoadGenObservability is the PR's acceptance check: a load-generator
// run against the in-process server must yield (a) a /metrics scrape with
// request counters, per-stage latency histograms, and cache gauges, and
// (b) a /debug/traces export that parses as Chrome trace_event JSON with
// at least five distinct span types per request.
func TestLoadGenObservability(t *testing.T) {
	s := newTestServer(t, 2)
	prepareTemplate(t, s, 1)
	prepareTemplate(t, s, 2)
	res, err := RunLoad(context.Background(), s, LoadGenConfig{
		RPS: 60, N: 10, Dist: workload.ProductionTrace,
		Templates: []uint64{1, 2}, TimeScale: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d load errors", res.Errors)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// (a) The metrics scrape.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`flashps_requests_total{outcome="ok"} 10`,
		`flashps_request_stage_seconds_count{stage="queue"} 10`,
		`flashps_request_stage_seconds_count{stage="preprocess"} 10`,
		`flashps_request_stage_seconds_count{stage="cache_load"} 10`,
		`flashps_request_stage_seconds_count{stage="denoise_step"} 50`, // 10 req × 5 steps
		`flashps_request_stage_seconds_count{stage="postprocess"} 10`,
		`flashps_request_stage_seconds_count{stage="serialize"} 10`,
		`flashps_request_stage_seconds_count{stage="schedule"} 10`,
		`flashps_request_stage_seconds_count{stage="request"} 10`,
		"flashps_denoise_steps_total 50",
		"flashps_cache_hits 1", // prefix: ≥10 hits
		"flashps_cache_misses",
		"flashps_batch_occupancy_sum",
		`flashps_worker_queue_depth{worker="0"} 0`,
		`flashps_worker_queue_depth{worker="1"} 0`,
		`flashps_sched_decisions_total{kind="place"} 10`,
		`flashps_slo_requests_total`,
		"flashps_slo_attainment",
		"flashps_goodput_rps",
		`flashps_request_stage_quantile_seconds{stage="request",quantile="0.99"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics scrape missing %q in:\n%s", want, text)
		}
	}
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", got)
	}

	// No HTML dashboard: /metrics is the one rendering of the plane.
	resp, err = http.Get(ts.URL + "/debug/dash")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /debug/dash = %d, want 404", resp.StatusCode)
	}

	// (b) The trace export.
	resp, err = http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			TS   int64              `json:"ts"`
			Dur  int64              `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	perReq := map[uint64]map[string][2]int64{} // request → span name → [ts, end]
	reqWindow := map[uint64][2]int64{}
	flows := 0
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "s", "f":
			// Causal flow events binding parent → child spans.
			flows++
			continue
		case "X":
		default:
			t.Fatalf("span %q has ph=%q, want X/s/f", e.Name, e.Ph)
		}
		if e.Args["trace_id"] == 0 || e.Args["span_id"] == 0 {
			t.Fatalf("span %q missing causal identity: %v", e.Name, e.Args)
		}
		id := uint64(e.Args["request"])
		if perReq[id] == nil {
			perReq[id] = map[string][2]int64{}
		}
		perReq[id][e.Name] = [2]int64{e.TS, e.TS + e.Dur}
		if e.Name == "request" {
			reqWindow[id] = [2]int64{e.TS, e.TS + e.Dur}
		}
	}
	if flows == 0 {
		t.Fatal("trace export has no causal flow events")
	}
	if len(reqWindow) != 10 {
		t.Fatalf("parent request spans = %d, want 10", len(reqWindow))
	}
	for id, spans := range perReq {
		for _, stage := range []string{
			stageQueue, stagePreprocess, stageDenoiseStep, stageCacheLoad, stagePostprocess,
		} {
			if _, ok := spans[stage]; !ok {
				t.Fatalf("request %d missing span type %q (has %v)", id, stage, spans)
			}
		}
		if len(spans) < 5 {
			t.Fatalf("request %d has %d span types, want ≥5", id, len(spans))
		}
		// Every stage span nests within the parent request window (±2 µs
		// slack for independent microsecond truncation of start and dur).
		const slack = 2
		win := reqWindow[id]
		for name, se := range spans {
			if name == stageRequest {
				continue
			}
			if se[0] < win[0]-slack || se[1] > win[1]+slack {
				t.Fatalf("request %d span %q [%d,%d] outside request [%d,%d]",
					id, name, se[0], se[1], win[0], win[1])
			}
			if se[1] < se[0] {
				t.Fatalf("request %d span %q ends before it starts", id, name)
			}
		}
	}
}

func TestGETOnlyEndpointsReject405(t *testing.T) {
	s := newTestServer(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/stats", "/metrics", "/debug/traces", "/healthz"} {
		res, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(nil))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s = %d, want 405", path, res.StatusCode)
		}
		if allow := res.Header.Get("Allow"); allow != http.MethodGet {
			t.Fatalf("POST %s Allow = %q", path, allow)
		}
	}
}

func TestHealthzReadiness(t *testing.T) {
	// Not started yet → 503 "starting". The step delay keeps the two edits
	// below in flight long enough to observe the saturated state.
	inj := faults.New(1)
	inj.SetDelay(faults.StepStage, 30*time.Millisecond, 0)
	s, err := New(Config{
		Model: testModel, Profile: perfmodel.SD21Paper,
		Workers: 1, MaxBatch: 1, MaxQueue: 2, Policy: batching.MaskAware, Seed: 1,
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if h.Status != "starting" || h.Started {
		t.Fatalf("pre-start health = %+v", h)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-start healthz = %d, want 503", res.StatusCode)
	}

	s.Start()
	t.Cleanup(s.Close)
	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body Health
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || body.Status != "ok" || body.Workers != 1 {
		t.Fatalf("healthz = %d %+v", res.StatusCode, body)
	}

	// Saturate the single worker's admission budget → 503 "overloaded".
	prepareTemplate(t, s, 1)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.SubmitEdit(context.Background(), EditRequestAPI{
				TemplateID: 1, Seed: uint64(i),
				Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: uint64(i)},
			}); err != nil {
				t.Errorf("edit %d: %v", i, err)
			}
		}()
	}
	waitUntil(t, time.Second, func() bool { return s.Health().QueueDepths[0] == 2 },
		"two edits never outstanding together")
	// The gauge is the outstanding count (one running, one waiting), not
	// the ready queue alone.
	var expo bytes.Buffer
	if err := s.Registry().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if want := `flashps_worker_queue_depth{worker="0"} 2`; !strings.Contains(expo.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
	res, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || body.Status != "overloaded" {
		t.Fatalf("saturated healthz = %d %+v", res.StatusCode, body)
	}
	wg.Wait()
	if got := s.Health().Status; got != "ok" {
		t.Fatalf("drained health = %q", got)
	}
}
