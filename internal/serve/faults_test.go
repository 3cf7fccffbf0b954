package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"flashps/internal/batching"
	"flashps/internal/faults"
	"flashps/internal/perfmodel"
	"flashps/internal/workload"
)

// faultServer builds a started server around the toy model with the given
// overrides, for fault-injection scenarios.
func faultServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Model.Name == "" {
		cfg.Model = testModel
	}
	cfg.Profile = perfmodel.SD21Paper
	cfg.Policy = batching.MaskAware
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Close)
	return s
}

// metricValue scrapes the server's public registry and returns the value
// of a plain (unlabeled) counter/gauge sample, or -1 when absent.
func metricValue(t testing.TB, s *Server, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindStringSubmatch(buf.String())
	if m == nil {
		return -1
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, msg)
}

// TestWorkerCrashRetriesOnAlternateReplica is the headline fault drill:
// kill one of two engine loops mid-batch and require every in-flight
// request to complete anyway, re-executed on the surviving replica within
// the retry budget, with the crash visible in the counters and /healthz
// recovering after the restart delay.
func TestWorkerCrashRetriesOnAlternateReplica(t *testing.T) {
	inj := faults.New(7)
	inj.Fail(faults.WorkerCrash(0), 1)
	inj.SetDelay(faults.StepStage, 2*time.Millisecond, 0)
	s := faultServer(t, Config{
		Workers: 2, MaxBatch: 4, PreWorkers: 2, PostWorkers: 2,
		WorkerRestartDelay: 100 * time.Millisecond,
		Faults:             inj,
	})
	prepareTemplate(t, s, 1)

	const n = 8
	var wg sync.WaitGroup
	resps := make([]EditResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], errs[i] = s.SubmitEdit(context.Background(), EditRequestAPI{
				TemplateID: 1, Seed: uint64(i),
				Mask: MaskSpec{Type: "ratio", Ratio: 0.1 + 0.05*float64(i%5), Seed: uint64(i)},
			})
		}()
		time.Sleep(3 * time.Millisecond) // spread routing across both replicas
	}
	wg.Wait()

	retried := 0
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d failed despite retry budget: %v", i, errs[i])
		}
		if resps[i].StepsComputed != testModel.Steps {
			t.Fatalf("request %d computed %d steps", i, resps[i].StepsComputed)
		}
		if resps[i].Retries > 0 {
			retried++
			if resps[i].Worker == 0 {
				t.Fatalf("request %d retried onto the crashed replica mid-downtime", i)
			}
		}
	}
	if retried == 0 {
		t.Fatal("worker 0 crashed but no request reports a retry")
	}
	if v := metricValue(t, s, "flashps_worker_restarts_total"); v != 1 {
		t.Fatalf("worker_restarts_total = %v, want 1", v)
	}
	if v := metricValue(t, s, "flashps_retries_total"); v < 1 {
		t.Fatalf("retries_total = %v, want >= 1", v)
	}
	waitUntil(t, 2*time.Second, func() bool {
		h := s.Health()
		for _, alive := range h.WorkerAlive {
			if !alive {
				return false
			}
		}
		return h.Status == "ok"
	}, "health did not recover after worker restart")
}

// TestWorkerCrashOutsideStepIsContained drills a panic on the replica's
// goroutine that is not under a denoising step: delivering a retired
// request. The wall executor must keep it inside the replica — the
// requests it had not handed on fail, a batch behind them is reported
// crashed so the Runner rescues it, and the replica keeps serving.
func TestWorkerCrashOutsideStepIsContained(t *testing.T) {
	s := faultServer(t, Config{Workers: 1, MaxBatch: 4})
	prepareTemplate(t, s, 1)
	// Jobs without a session: serializing their latent dereferences nil.
	view := func(id uint64) batching.StepView {
		j := &job{id: id, resp: make(chan jobResult, 1)}
		j.ctx, j.cancel = context.WithCancel(context.Background())
		t.Cleanup(j.cancel)
		s.jobsMu.Lock()
		s.jobs[id] = j
		s.jobsMu.Unlock()
		return batching.StepView{Req: workload.Request{ID: int(id)}}
	}
	type answer struct {
		i       int
		ok, run bool // run: the answer came through Done
	}
	answers := make(chan answer, 4)
	turn := batching.Turn{
		Worker:   0,
		Retired:  []batching.StepView{view(1 << 40), view(1<<40 + 1)},
		Aligned:  1,
		Complete: func(i int, ok bool) { answers <- answer{i: i, ok: ok} },
		Done:     func(crashed bool, _ []int) { answers <- answer{ok: !crashed, run: true} },
	}
	recv := func() answer {
		select {
		case a := <-answers:
			return a
		case <-time.After(5 * time.Second):
			t.Fatal("the turn never answered")
			return answer{}
		}
	}

	// Deliver-only turn: both retired requests fail, nothing else happens.
	wallExecutor{s}.RunTurn(turn)
	for want := 0; want < 2; want++ {
		if a := recv(); a.run || a.ok || a.i != want {
			t.Fatalf("deliver-only turn answered %+v, want Complete(%d, false)", a, want)
		}
	}
	if v := metricValue(t, s, "flashps_worker_restarts_total"); v != 0 {
		t.Fatalf("worker_restarts_total = %v after a turn without a batch, want 0", v)
	}

	// The same with a batch behind the delivery: it is reported crashed.
	turn.Batch = []batching.StepView{view(1<<40 + 2)}
	wallExecutor{s}.RunTurn(turn)
	for want := 0; want < 2; want++ {
		if a := recv(); a.run || a.ok || a.i != want {
			t.Fatalf("turn answered %+v, want Complete(%d, false)", a, want)
		}
	}
	if a := recv(); !a.run || a.ok {
		t.Fatalf("turn answered %+v, want Done(crashed)", a)
	}
	if v := metricValue(t, s, "flashps_worker_restarts_total"); v != 1 {
		t.Fatalf("worker_restarts_total = %v, want 1", v)
	}

	// The replica's goroutine survived both.
	resp, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 1, Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 1},
	})
	if err != nil || resp.StepsComputed != testModel.Steps {
		t.Fatalf("edit after the contained crashes: %+v, %v", resp, err)
	}
}

// TestHealthDegradedWhileWorkerDown pins the liveness contract: with the
// only replica crashed and not yet restarted, routing fails retryably,
// /healthz reports 503 "degraded" with per-worker liveness, and the
// replica comes back after the restart delay.
func TestHealthDegradedWhileWorkerDown(t *testing.T) {
	inj := faults.New(7)
	inj.Fail(faults.WorkerCrash(0), 1)
	s := faultServer(t, Config{
		Workers: 1, MaxBatch: 2,
		WorkerRestartDelay: 400 * time.Millisecond,
		Faults:             inj,
	})
	prepareTemplate(t, s, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The lone replica crashes on admission; the retry has nowhere to go.
	_, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 1, Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 1},
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("crash with no alternate replica: err = %v, want overloaded", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || !ae.Retryable {
		t.Fatalf("downtime error should be retryable: %+v", ae)
	}

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded" {
		t.Fatalf("down replica: healthz = %d %q, want 503 degraded", res.StatusCode, h.Status)
	}
	if len(h.WorkerAlive) != 1 || h.WorkerAlive[0] {
		t.Fatalf("worker_alive = %v, want [false]", h.WorkerAlive)
	}

	waitUntil(t, 2*time.Second, func() bool { return s.Health().Status == "ok" },
		"replica did not restart")

	// The restarted replica serves again.
	if _, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 2, Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 2},
	}); err != nil {
		t.Fatalf("edit after restart: %v", err)
	}
}

// TestCacheLoadFailureDegradesToFull: a failed template-cache load must not
// kill a flashps-mode request — it falls back to full compute with the
// degradation recorded on the response and in the counters.
func TestCacheLoadFailureDegradesToFull(t *testing.T) {
	inj := faults.New(7)
	inj.Fail(faults.CacheLoad, 1)
	s := faultServer(t, Config{Workers: 1, MaxBatch: 2, Faults: inj})
	prepareTemplate(t, s, 1)

	resp, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 1, Mode: "flashps",
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 1},
	})
	if err != nil {
		t.Fatalf("degraded request should still complete: %v", err)
	}
	if !resp.Degraded || resp.DegradedReason != degradeCacheFailed {
		t.Fatalf("degradation not recorded: %+v", resp)
	}
	if resp.StepsComputed != testModel.Steps {
		t.Fatalf("degraded full mode computed %d steps", resp.StepsComputed)
	}
	if v := metricValue(t, s, "flashps_degraded_total"); v != 1 {
		t.Fatalf("degraded_total = %v, want 1", v)
	}

	// Fail budget consumed: the next request serves the cached path cleanly.
	resp, err = s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 2, Mode: "flashps",
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 2},
	})
	if err != nil || resp.Degraded {
		t.Fatalf("after budget: err=%v degraded=%v", err, resp.Degraded)
	}
	if v := metricValue(t, s, "flashps_degraded_total"); v != 1 {
		t.Fatalf("degraded_total moved to %v", v)
	}
}

// TestCacheLoadTimeoutDegrades: a slow (not failed) cache load beyond
// CacheLoadTimeout also degrades, with its own reason.
func TestCacheLoadTimeoutDegrades(t *testing.T) {
	inj := faults.New(7)
	inj.SetDelay(faults.CacheLoad, 20*time.Millisecond, 0)
	s := faultServer(t, Config{
		Workers: 1, MaxBatch: 2,
		CacheLoadTimeout: 5 * time.Millisecond,
		Faults:           inj,
	})
	prepareTemplate(t, s, 1)
	resp, err := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 1, Mode: "flashps",
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.DegradedReason != degradeCacheTimeout {
		t.Fatalf("slow load not degraded: %+v", resp)
	}
	// Explicit full mode never reports degradation — there is no cached
	// path to lose.
	resp, err = s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 2, Mode: "full",
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 2},
	})
	if err != nil || resp.Degraded {
		t.Fatalf("full mode degraded: err=%v %+v", err, resp)
	}
}

// TestDeadlineExceededEvictsMidDenoise: an expired deadline_ms returns 504
// with the deadline_exceeded envelope while the abandoned job is evicted
// at the next step boundary, releasing its admission slot.
func TestDeadlineExceededEvictsMidDenoise(t *testing.T) {
	inj := faults.New(7)
	inj.SetDelay(faults.StepStage, 30*time.Millisecond, 0) // ≥150ms per request
	s := faultServer(t, Config{Workers: 1, MaxBatch: 2, Faults: inj})
	prepareTemplate(t, s, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(EditRequestAPI{
		TemplateID: 1, Seed: 1, DeadlineMS: 40,
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 1},
	})
	start := time.Now()
	res, err := http.Post(ts.URL+"/v1/edits", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", res.StatusCode)
	}
	ae := decodeEnvelope(t, res)
	if ae.Code != CodeDeadlineExceeded || !ae.Retryable {
		t.Fatalf("envelope = %+v", ae)
	}
	// The response must arrive at deadline expiry, not after the full
	// denoise (~150ms with the injected step delay).
	if el := time.Since(start); el > 120*time.Millisecond {
		t.Fatalf("deadline response took %v", el)
	}
	if v := metricValue(t, s, "flashps_deadline_exceeded_total"); v != 1 {
		t.Fatalf("deadline_exceeded_total = %v, want 1", v)
	}
	// Eviction at the step boundary releases the admission slot.
	waitUntil(t, 2*time.Second, func() bool {
		for _, d := range s.Health().QueueDepths {
			if d != 0 {
				return false
			}
		}
		return true
	}, "abandoned job not evicted")

	// Same contract through the Go API.
	_, serr := s.SubmitEdit(context.Background(), EditRequestAPI{
		TemplateID: 1, Seed: 2, DeadlineMS: 40,
		Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: 2},
	})
	var dae *APIError
	if !errors.As(serr, &dae) || dae.Code != CodeDeadlineExceeded {
		t.Fatalf("SubmitEdit deadline err = %v", serr)
	}
	if echo := dae.Error(); echo == "" {
		t.Fatal("empty error text")
	}
}

// TestCancelConcurrentEditsNoLeak cancels 50 concurrent in-flight edits
// mid-denoise and asserts the pipeline drains every one of them with no
// leaked goroutines (run under -race via `make faults`).
func TestCancelConcurrentEditsNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	inj := faults.New(7)
	inj.SetDelay(faults.StepStage, 10*time.Millisecond, 0)
	s, err := New(Config{
		Model: testModel, Profile: perfmodel.SD21Paper,
		Workers: 2, MaxBatch: 4, PreWorkers: 2, PostWorkers: 2,
		Policy: batching.MaskAware, Seed: 42,
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	prepareTemplate(t, s, 1)

	ctx, cancel := context.WithCancel(context.Background())
	const n = 50
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.SubmitEdit(ctx, EditRequestAPI{
				TemplateID: 1, Seed: uint64(i),
				Mask: MaskSpec{Type: "ratio", Ratio: 0.2, Seed: uint64(i)},
			})
		}()
	}
	time.Sleep(25 * time.Millisecond) // let the batch get mid-denoise
	cancel()
	wg.Wait()

	canceled := 0
	for i, err := range errs {
		if err == nil {
			continue // finished before the cancel — fine
		}
		var ae *APIError
		if !errors.As(err, &ae) || ae.Code != CodeCanceled {
			t.Fatalf("request %d: %v, want canceled", i, err)
		}
		canceled++
	}
	if canceled == 0 {
		t.Fatal("no request was actually in flight at cancel time")
	}

	// Every abandoned job must be evicted and its admission slot released.
	waitUntil(t, 5*time.Second, func() bool {
		for _, d := range s.Health().QueueDepths {
			if d != 0 {
				return false
			}
		}
		return true
	}, "canceled jobs not evicted")

	s.Close()
	waitUntil(t, 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= baseline+3
	}, "goroutines leaked after cancel storm")
}

// TestShedLargestMaskFirst: under sustained overload the server sacrifices
// the largest-mask-ratio outstanding work for smaller work, and only
// rejects blindly when no outstanding job is larger than the newcomer.
func TestShedLargestMaskFirst(t *testing.T) {
	inj := faults.New(7)
	inj.SetDelay(faults.StepStage, 25*time.Millisecond, 0) // keep jobs in flight
	s := faultServer(t, Config{
		Workers: 1, MaxBatch: 4, MaxQueue: 2,
		Faults: inj,
	})
	prepareTemplate(t, s, 1)

	depth := func() int { return s.Health().QueueDepths[0] }
	submit := func(ratio float64, seed uint64, out chan<- error) {
		_, err := s.SubmitEdit(context.Background(), EditRequestAPI{
			TemplateID: 1, Seed: seed,
			Mask: MaskSpec{Type: "ratio", Ratio: ratio, Seed: seed},
		})
		out <- err
	}

	big := make(chan error, 1)
	go submit(0.9, 1, big)
	waitUntil(t, time.Second, func() bool { return depth() == 1 }, "big job not admitted")
	mid := make(chan error, 1)
	go submit(0.8, 2, mid)
	waitUntil(t, time.Second, func() bool { return depth() == 2 }, "mid job not admitted")

	// Larger than everything outstanding → nothing to shed → rejected.
	huge := make(chan error, 1)
	go submit(0.95, 3, huge)
	if err := <-huge; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("oversized newcomer: %v, want overloaded rejection", err)
	}

	// Smaller than the 0.9 job → that job is shed, newcomer is served.
	small := make(chan error, 1)
	go submit(0.05, 4, small)
	if err := <-big; !errors.Is(err, ErrOverloaded) {
		t.Fatalf("big job should have been shed: %v", err)
	}
	if err := <-small; err != nil {
		t.Fatalf("small job should be served after shed: %v", err)
	}
	if err := <-mid; err != nil {
		t.Fatalf("mid job should survive: %v", err)
	}
	if v := metricValue(t, s, `flashps_requests_total{outcome="shed"}`); v < 1 {
		// The shed outcome is labeled; scrape it with its label set.
		var buf bytes.Buffer
		_ = s.Registry().WritePrometheus(&buf)
		t.Fatalf("shed outcome not counted:\n%s", buf.String())
	}

	// The core's exported decision log is the contract for overload
	// behavior — assert through it rather than poking worker internals.
	// Submission order (big, mid, huge, small) fixes the KindPlace order,
	// so the log tells us which request ID each role got.
	var places, sheds, rejects []batching.Decision
	for _, d := range s.Decisions() {
		switch d.Kind {
		case batching.KindPlace:
			places = append(places, d)
		case batching.KindShed:
			sheds = append(sheds, d)
		case batching.KindReject:
			rejects = append(rejects, d)
		}
	}
	if len(places) != 4 {
		t.Fatalf("placed %d requests, want 4: %v", len(places), places)
	}
	bigID, hugeID := places[0].Request, places[2].Request
	if len(rejects) != 1 || rejects[0].Request != hugeID {
		t.Fatalf("reject log %v, want exactly one reject of request %d", rejects, hugeID)
	}
	if len(sheds) != 1 || sheds[0].Request != bigID {
		t.Fatalf("shed log %v, want exactly one shed of request %d", sheds, bigID)
	}
}

// TestFaultCountersExposedAtZero: all four resilience counters are
// registered eagerly so a scrape sees them before the first incident.
func TestFaultCountersExposedAtZero(t *testing.T) {
	s := newTestServer(t, 1)
	for _, name := range []string{
		"flashps_retries_total",
		"flashps_degraded_total",
		"flashps_worker_restarts_total",
		"flashps_deadline_exceeded_total",
	} {
		if v := metricValue(t, s, name); v != 0 {
			t.Fatalf("%s = %v, want 0 on a fresh server", name, v)
		}
	}
}
