package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashps/internal/batching"
	"flashps/internal/model"
	"flashps/internal/perfmodel"
	"flashps/internal/serve"
)

// The server under test is the shipped flashps-server shape for sd21-sim.
var engineModel = model.SD21Sim

const (
	engineSeed = 42 // flashps-server's default weight seed; never the run's --seed
	workers    = 2
	maxBatch   = 4
)

// templateBytes is the activation-cache size of one prepared template,
// computed from the model shape (float32 block outputs for every step,
// block and guidance pass); set-up fails if the server reports otherwise.
func templateBytes() int64 {
	c := engineModel
	passes := 1
	if c.GuidanceScale > 0 {
		passes = 2
	}
	return int64(c.Steps * c.NumBlocks * passes * c.Tokens() * c.Hidden * 4)
}

// op is one request the benchmark sent and what came back. Due, Start and
// End are offsets from the start of the pass; Due == Start in a closed
// loop.
type op struct {
	Kind            string // "edit", "prepare" or "delete"
	Index           int    // schedule index of an edit
	Due, Start, End time.Duration
	OK              bool
	Edit            serve.EditResponse // ImagePNG kept only on the edits to be checked
}

// latency is what the caller waited: from when the request was due.
func (o op) latency() time.Duration { return o.End - o.Due }

// harness owns one in-process server and drives its HTTP handler through
// an in-memory recorder: real routing, JSON decode and encode, no sockets.
type harness struct {
	sp      spec
	seed    uint64
	sched   []request
	srv     *serve.Server
	handler http.Handler
	dir     string // CacheDir, removed on close
	meter   *hostMeter
	setup   float64 // seconds the set-up took, at reference host speed

	attempted, failed atomic.Int64
	inflight          atomic.Int64
	next              atomic.Int64 // closed loops: next schedule index or churn iteration
	cursor            int          // open loops: next schedule index
	keep              int          // the first keep edits are recomputed by the output check

	mu       sync.Mutex
	firstErr string
	prepares []float64 // ms at reference host speed, every successful non-reused POST /v1/templates
	checked  []op      // the edits the output check recomputes
}

// newHarness performs one complete set-up — server build, template
// prepares, trace generation — and times it.
func newHarness(sp spec, seed uint64, keep int, workdir string, meter *hostMeter) (*harness, error) {
	start := time.Now()
	h := &harness{sp: sp, seed: seed, keep: keep, meter: meter}
	cfg := serve.Config{
		Model: engineModel, Profile: perfmodel.SD21Paper,
		Workers: workers, MaxBatch: maxBatch, Policy: batching.MaskAware,
		Seed: engineSeed, Router: sp.Router, StagedTemplates: sp.StagedTemplates,
	}
	if sp.RAMTemplates > 0 {
		// Half a template of slack: the budget holds RAMTemplates, not one more.
		cfg.CacheBudgetBytes = int64(sp.RAMTemplates)*templateBytes() + templateBytes()/2
	}
	if sp.DiskTier {
		dir, err := os.MkdirTemp(workdir, "cache-")
		if err != nil {
			return nil, err
		}
		h.dir, cfg.CacheDir = dir, dir
	}
	srv, err := serve.New(cfg)
	if err != nil {
		h.close()
		return nil, err
	}
	srv.Start()
	h.srv, h.handler = srv, srv.Handler()
	for id := uint64(1); id <= uint64(sp.Templates); id++ {
		if err := h.prepare(id); err != nil {
			h.close()
			return nil, err
		}
	}
	if h.sched, err = schedule(sp, seed); err != nil {
		h.close()
		return nil, err
	}
	end := time.Now()
	h.setup = end.Sub(start).Seconds() / meter.factor(start, end)
	return h, nil
}

func (h *harness) close() {
	if h.srv != nil {
		h.srv.Close()
	}
	if h.dir != "" {
		os.RemoveAll(h.dir)
	}
}

// do sends one request through the handler and returns the status, body
// and the time ServeHTTP took. Anything but 200 counts as failed.
func (h *harness) do(method, path string, body []byte) (int, []byte, time.Time, time.Time) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err) // method and path are the benchmark's own constants
	}
	rec := httptest.NewRecorder()
	h.attempted.Add(1)
	h.inflight.Add(1)
	start := time.Now()
	h.handler.ServeHTTP(rec, req)
	end := time.Now()
	h.inflight.Add(-1)
	if rec.Code != http.StatusOK {
		h.fail(fmt.Sprintf("%s %s: HTTP %d: %s", method, path, rec.Code, strings.TrimSpace(rec.Body.String())))
	}
	return rec.Code, rec.Body.Bytes(), start, end
}

func (h *harness) fail(msg string) {
	h.failed.Add(1)
	h.mu.Lock()
	if h.firstErr == "" {
		h.firstErr = msg
	}
	h.mu.Unlock()
}

// prepare POSTs template id and checks the reported cache size.
func (h *harness) prepare(id uint64) error {
	body, err := json.Marshal(prepareRequest(h.seed, id))
	if err != nil {
		return err
	}
	code, out, start, end := h.do(http.MethodPost, "/v1/templates", body)
	if code != http.StatusOK {
		return fmt.Errorf("prepare template %d: HTTP %d", id, code)
	}
	var resp serve.PrepareResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("prepare template %d: %w", id, err)
	}
	if resp.CacheBytes != templateBytes() {
		return fmt.Errorf("template %d is %d bytes, computed %d from the model shape", id, resp.CacheBytes, templateBytes())
	}
	if !resp.Reused {
		h.mu.Lock()
		h.prepares = append(h.prepares, ms(end.Sub(start))/h.meter.factor(start, end))
		h.mu.Unlock()
	}
	return nil
}

// edit sends schedule entry i (due at offset due from t0) and records it.
func (h *harness) edit(i int, t0 time.Time, due time.Duration) op {
	r := h.sched[i%len(h.sched)]
	code, out, start, end := h.do(http.MethodPost, "/v1/edits", r.Body)
	o := op{Kind: "edit", Index: i, Due: due, Start: start.Sub(t0), End: end.Sub(t0), OK: code == http.StatusOK}
	if due < 0 {
		o.Due = o.Start
	}
	if !o.OK {
		return o
	}
	switch err := json.Unmarshal(out, &o.Edit); {
	case err != nil:
		o.OK = false
		h.fail(fmt.Sprintf("edit %d: bad response body: %v", i, err))
	case o.Edit.StepsComputed != engineModel.Steps:
		o.OK = false
		h.fail(fmt.Sprintf("edit %d: steps_computed %d, want %d", i, o.Edit.StepsComputed, engineModel.Steps))
	case len(o.Edit.ImagePNG) == 0:
		o.OK = false
		h.fail(fmt.Sprintf("edit %d: no image returned", i))
	}
	if i >= h.keep || !o.OK {
		o.Edit.ImagePNG = nil // thousands of PNGs would dominate peak_rss_mb
	}
	return o
}

// pass is the outcome of driving the workload for one window.
type pass struct {
	T0      time.Time // what the ops' offsets count from
	Ops     []op
	Elapsed time.Duration // window start to the last response
	Backlog int           // requests in flight when the window closed
	LateMS  []float64     // open loop: how late each request was sent
}

// edits returns the pass's successful edits.
func (p pass) edits() []op {
	var out []op
	for _, o := range p.Ops {
		if o.Kind == "edit" && o.OK {
			out = append(out, o)
		}
	}
	return out
}

// run drives the workload for dur, continuing in the schedule from where
// the previous pass stopped. An open loop paces its schedule by the host
// factor: on a host 20% slower than the reference the same requests are
// spread over 20% more time, so that the server runs at the utilisation the
// rate was sized for. tr, when non-nil, gets a root span per edit with queue
// and inference children cut from the response's timings.
func (h *harness) run(dur time.Duration, tr *tracer) pass {
	var (
		t0 = time.Now()
		p  = pass{T0: t0}
		mu sync.Mutex
		wg sync.WaitGroup
	)
	record := func(o op) {
		if o.Edit.ImagePNG != nil {
			h.mu.Lock()
			h.checked = append(h.checked, o)
			h.mu.Unlock()
			o.Edit.ImagePNG = nil
		}
		if tr != nil && o.Kind == "edit" && o.OK {
			begin := t0.Add(o.Start)
			admit := begin.Add(time.Duration(o.Edit.QueueMS * float64(time.Millisecond)))
			done := admit.Add(time.Duration(o.Edit.InferenceMS * float64(time.Millisecond)))
			root := tr.add("request", o.Index, -1, begin, t0.Add(o.End))
			tr.add("queue", o.Index, root, begin, admit)
			tr.add("inference", o.Index, root, admit, done)
		}
		mu.Lock()
		p.Ops = append(p.Ops, o)
		mu.Unlock()
	}
	if h.sp.Loop == "open" {
		for due, first := time.Duration(0), true; ; h.cursor, first = h.cursor+1, false {
			i := h.cursor % len(h.sched)
			if i > 0 && !first { // a pass's first request is due as the pass starts
				due += time.Duration(float64(h.sched[i].Due-h.sched[i-1].Due) * h.meter.recent())
			}
			if due >= dur {
				break
			}
			time.Sleep(time.Until(t0.Add(due)))
			p.LateMS = append(p.LateMS, ms(time.Since(t0)-due))
			wg.Add(1)
			go func(i int, due time.Duration) {
				defer wg.Done()
				record(h.edit(i, t0, due))
			}(h.cursor, due)
		}
	} else {
		turn := func(k int) { record(h.edit(k, t0, -1)) }
		if h.sp.ChurnEdits > 0 {
			turn = func(k int) { h.churn(k, t0, record) }
		}
		for c := 0; c < h.sp.Clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Since(t0) < dur {
					turn(int(h.next.Add(1) - 1))
				}
			}()
		}
		time.Sleep(time.Until(t0.Add(dur)))
	}
	p.Backlog = int(h.inflight.Load())
	wg.Wait()
	for _, o := range p.Ops {
		p.Elapsed = max(p.Elapsed, o.End)
	}
	return p
}

// churn is one template_churn iteration: prepare template k, edit it
// ChurnEdits times, delete it.
func (h *harness) churn(k int, t0 time.Time, record func(op)) {
	id := h.sched[(k*h.sp.ChurnEdits)%len(h.sched)].API.TemplateID
	timed := func(kind string, fn func() bool) {
		start := time.Since(t0)
		ok := fn()
		record(op{Kind: kind, Due: start, Start: start, End: time.Since(t0), OK: ok})
	}
	timed("prepare", func() bool { return h.prepare(id) == nil })
	for e := 0; e < h.sp.ChurnEdits; e++ {
		record(h.edit(k*h.sp.ChurnEdits+e, t0, -1))
	}
	timed("delete", func() bool {
		code, _, _, _ := h.do(http.MethodDelete, "/v1/templates/"+strconv.FormatUint(id, 10), nil)
		return code == http.StatusOK
	})
}

// counters is a point-in-time read of the server's public accessors and
// /metrics exposition; layer metrics are differences between two reads.
type counters struct {
	metrics   map[string]float64 // Prometheus series -> value
	decisions int
}

func (h *harness) counters() counters {
	_, body, _, _ := h.do(http.MethodGet, "/metrics", nil)
	c := counters{metrics: make(map[string]float64), decisions: len(h.srv.Decisions())}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if cut := strings.LastIndexByte(line, ' '); cut > 0 {
			if v, err := strconv.ParseFloat(line[cut+1:], 64); err == nil {
				c.metrics[line[:cut]] = v
			}
		}
	}
	return c
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
