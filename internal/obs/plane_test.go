package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestWindowQuantileNearestRank(t *testing.T) {
	q := NewWindowQuantile(10, 0)
	for i := 1; i <= 100; i++ {
		q.Observe(1.0, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.5, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100},
	} {
		if got := q.Quantile(1.0, tc.p); got != tc.want {
			t.Fatalf("P%g = %g, want %g", tc.p*100, got, tc.want)
		}
	}
	if got := q.Count(1.0); got != 100 {
		t.Fatalf("count = %d", got)
	}
	// The window slides: observations at t=1 vanish by t=12.
	q.Observe(12.0, 7)
	if got := q.Count(12.0); got != 1 {
		t.Fatalf("count after slide = %d", got)
	}
	if got := q.Quantile(12.0, 0.5); got != 7 {
		t.Fatalf("P50 after slide = %g", got)
	}
	// Lifetime totals survive the slide.
	if n, sum := q.Total(); n != 101 || sum != 5050+7 {
		t.Fatalf("total = %d/%g", n, sum)
	}
}

func TestWindowQuantileEmptyAndCap(t *testing.T) {
	q := NewWindowQuantile(10, 4)
	if !math.IsNaN(q.Quantile(0, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	for i := 0; i < 10; i++ {
		q.Observe(1.0, float64(i))
	}
	if got := q.Count(1.0); got != 4 {
		t.Fatalf("capped count = %d, want 4", got)
	}
	// Oldest dropped first: survivors are 6..9.
	if got := q.Quantile(1.0, 0.0); got != 6 {
		t.Fatalf("min after cap = %g, want 6", got)
	}
}

func TestQuantileVecKeysSorted(t *testing.T) {
	v := NewQuantileVec(10, 0)
	v.With("queue").Observe(0, 1)
	v.With("denoise").Observe(0, 2)
	v.With("admit").Observe(0, 3)
	keys := v.Keys()
	want := []string{"admit", "denoise", "queue"}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
	if v.With("queue") != v.With("queue") {
		t.Fatal("With not idempotent")
	}
}

func TestSLOTrackerClassesAndAttainment(t *testing.T) {
	tr := NewSLOTracker(nil)
	// interactive (<0.15): deadline 2.5s.
	if c, ok := tr.Observe(0.10, 1.0); c.Name != "interactive" || !ok {
		t.Fatalf("interactive hit: %v %v", c, ok)
	}
	if c, ok := tr.Observe(0.10, 3.0); c.Name != "interactive" || ok {
		t.Fatalf("interactive miss: %v %v", c, ok)
	}
	// standard (<0.40): deadline 6s.
	if c, ok := tr.Observe(0.30, 5.9); c.Name != "standard" || !ok {
		t.Fatalf("standard hit: %v %v", c, ok)
	}
	// relaxed: deadline 15s; ratio 1.0 still classifies.
	if c, ok := tr.Observe(1.0, 20.0); c.Name != "relaxed" || ok {
		t.Fatalf("relaxed miss: %v %v", c, ok)
	}
	a, total := tr.Counts()
	if a != 2 || total != 4 {
		t.Fatalf("counts = %d/%d", a, total)
	}
	if got := tr.Attainment(); got != 0.5 {
		t.Fatalf("attainment = %g", got)
	}
	if len(tr.classes) != 3 {
		t.Fatalf("classes = %d", len(tr.classes))
	}
	// Per class, the plane's exposition counts each result: the same four
	// completions leave interactive at one attained and one missed.
	p := NewPlane(PlaneConfig{Clock: ClockFunc(func() float64 { return 0 })})
	for _, o := range [][2]float64{{0.10, 1.0}, {0.10, 3.0}, {0.30, 5.9}, {1.0, 20.0}} {
		p.ObserveSLO(o[0], o[1])
	}
	text := p.Reg.String()
	for _, want := range []string{
		`flashps_slo_requests_total{class="interactive",result="attained"} 1`,
		`flashps_slo_requests_total{class="interactive",result="missed"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	// Empty tracker: attainment vacuously 1 (no broken SLOs).
	if got := NewSLOTracker(nil).Attainment(); got != 1 {
		t.Fatalf("empty attainment = %g", got)
	}
}

// scriptPlane drives a plane through a fixed, deterministic event script
// on a manual clock; used by the golden, trace-schema and artifact tests.
func scriptPlane() *Plane {
	now := 0.0
	p := NewPlane(PlaneConfig{Clock: ClockFunc(func() float64 { return now })})
	for i := 0; i < 8; i++ {
		req := uint64(i + 1)
		trace := TraceID(req)
		root := SpanID(trace, "request", 0)
		arrival := float64(i) * 0.25
		now = arrival
		p.Decision("place")
		p.SetQueueDepth(i%2, 1)
		p.SpanCausal(req, "queue", "core", i%2, arrival, 0.05,
			trace, SpanID(trace, "queue", 0), root, nil)
		p.ObserveBatch(1 + i%3)
		p.AddSteps(1 + i%3)
		p.RecordCost(CostSample{Stage: CostStageDenoiseStep, Units: 1 + i%3,
			Batch: 1 + i%3, MaskSum: 0.05 * float64(i+1),
			FLOPs: 1e9 * float64(i+1), Seconds: 0.02})
		now = arrival + 0.05 + 0.80
		p.SpanCausal(req, "inference", "core", i%2, arrival+0.05, 0.80,
			trace, SpanID(trace, "inference", 0), root,
			map[string]float64{"interruptions": 0})
		now = arrival + 1.0
		p.SpanCausal(req, "postprocess", "core", i%2, arrival+0.85, 0.15,
			trace, SpanID(trace, "postprocess", 0), root, nil)
		p.SpanCausal(req, "request", "core", i%2, arrival, 1.0,
			trace, root, 0,
			map[string]float64{"mask_ratio": 0.05 * float64(i+1)})
		p.SetQueueDepth(i%2, 0)
		p.RequestOutcome("ok")
		p.ObserveSLO(0.05*float64(i+1), 1.0)
	}
	p.CacheTier("host", "hit", 6, 6*1024)
	p.CacheTier("disk", "load", 2, 2*1024)
	p.SetCalibration(CalibrationInfo{
		FittedAt: 2.0,
		Fits:     []StageFitInfo{{Stage: CostStageDenoiseStep, Residual: 0.03}},
	})
	now = 10.0
	return p
}

// TestPlaneExpositionGolden pins the full Prometheus exposition of a
// scripted plane. Regenerate with: go test ./internal/obs -run Golden -update
func TestPlaneExpositionGolden(t *testing.T) {
	got := scriptPlane().Reg.String()
	path := filepath.Join("testdata", "plane_golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden %s (re-run with -update if intended):\n%s", path, got)
	}
}

// TestChromeTraceSchema sanity-checks the trace export against the
// trace_event JSON shape Perfetto/chrome://tracing require: a traceEvents
// array of complete ("X") events with name/cat/ph/ts/dur/pid/tid and
// microsecond timestamps derived from the clock seconds, plus flow
// ("s"/"f") event pairs binding each child span to its parent so one
// request renders as a causal tree.
func TestChromeTraceSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := scriptPlane().Tracer.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Cat  string             `json:"cat"`
			Ph   string             `json:"ph"`
			TS   *int64             `json:"ts"`
			Dur  *int64             `json:"dur"`
			PID  int                `json:"pid"`
			TID  int                `json:"tid"`
			ID   string             `json:"id"`
			BP   string             `json:"bp"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	// 8 requests × 4 complete spans, plus an s/f flow pair per
	// parent→child edge (3 children per request).
	var xs, starts, finishes int
	for _, e := range out.TraceEvents {
		switch e.Ph {
		case "X":
			xs++
			if e.Name == "" || e.Cat == "" || e.TS == nil || e.Dur == nil {
				t.Fatalf("malformed event %+v", e)
			}
			if e.PID != 1 || e.TID < 0 {
				t.Fatalf("bad pid/tid in %+v", e)
			}
			if e.Args["request"] < 1 {
				t.Fatalf("missing request arg in %+v", e)
			}
			if e.Args["trace_id"] == 0 || e.Args["span_id"] == 0 {
				t.Fatalf("missing causal args in %+v", e)
			}
			if e.Name != "request" && e.Args["parent_id"] == 0 {
				t.Fatalf("child span without parent_id: %+v", e)
			}
		case "s":
			starts++
			if e.ID == "" || e.TS == nil {
				t.Fatalf("malformed flow start %+v", e)
			}
		case "f":
			finishes++
			if e.ID == "" || e.BP != "e" || e.TS == nil {
				t.Fatalf("malformed flow finish %+v", e)
			}
		default:
			t.Fatalf("unexpected phase %q in %+v", e.Ph, e)
		}
	}
	if xs != 8*4 || starts != 8*3 || finishes != 8*3 {
		t.Fatalf("events = %dX/%ds/%df, want 32/24/24", xs, starts, finishes)
	}
	// Spot-check microsecond conversion: request 1's queue span at 0s+50ms.
	e := out.TraceEvents[0]
	if *e.TS != 0 || *e.Dur != 50000 {
		t.Fatalf("first span [%d,+%d]µs, want [0,+50000]", *e.TS, *e.Dur)
	}
}

func TestPlaneArtifacts(t *testing.T) {
	dir := t.TempDir()
	p := scriptPlane()
	if err := p.WriteArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{ArtifactFlightRecorder, ArtifactMetrics, ArtifactProfile, ArtifactTrace}; !slices.Equal(names, want) {
		t.Fatalf("artifacts = %v, want %v", names, want)
	}
	prom, err := os.ReadFile(filepath.Join(dir, ArtifactMetrics))
	if err != nil {
		t.Fatal(err)
	}
	if string(prom) != p.Reg.String() {
		t.Fatal("metrics artifact differs from live exposition")
	}
	trace, err := os.ReadFile(filepath.Join(dir, ArtifactTrace))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace) {
		t.Fatal("trace artifact is not valid JSON")
	}
	prof, err := os.Open(filepath.Join(dir, ArtifactProfile))
	if err != nil {
		t.Fatal(err)
	}
	defer prof.Close()
	samples, err := ReadCostJSONL(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != p.Profile.Len() {
		t.Fatalf("profile artifact has %d samples, recorder %d", len(samples), p.Profile.Len())
	}
	if samples[0].Stage != CostStageDenoiseStep || samples[0].FLOPs != 1e9 {
		t.Fatalf("first profile sample = %+v", samples[0])
	}
}

// TestPlaneHotPathAllocs pins the per-call allocations of the plane
// methods every executed step or completed request goes through, after
// warm-up has created their label children: none allocates, ObserveSLO's
// two-label families included (the registry joins label keys on the
// stack).
func TestPlaneHotPathAllocs(t *testing.T) {
	p := NewPlane(PlaneConfig{TraceRing: 64})
	trace := TraceID(3)
	now := 0.0
	for _, tc := range []struct {
		name  string
		limit float64
		call  func()
	}{
		{"SetQueueDepth", 0, func() { p.SetQueueDepth(1, 2) }},
		{"ObserveBatch", 0, func() { p.ObserveBatch(3) }},
		{"Decision", 0, func() { p.Decision("place") }},
		{"RecordSpan", 0, func() {
			now++
			p.RecordSpan(Span{Request: 3, Name: "denoise_step", Cat: "serve", Start: now, Dur: 0.002,
				Args: Arg("step", now).And("batch", 2), Trace: trace, ID: SpanID(trace, "denoise_step", uint64(now))})
		}},
		{"ObserveSLO", 0, func() { p.ObserveSLO(0.1, 1.0) }},
	} {
		tc.call() // warm-up: creates the label children
		if n := testing.AllocsPerRun(200, tc.call); n > tc.limit {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, n, tc.limit)
		}
	}
}

func TestWallClockSeconds(t *testing.T) {
	w := &WallClock{}
	a := w.Now()
	if a < 0 {
		t.Fatalf("wall now = %g", a)
	}
	// Seconds places wall timestamps onto the same axis as Now.
	b := w.Seconds(time.Now())
	if math.Abs(b-w.Now()) > 1.0 {
		t.Fatalf("Seconds diverges from Now: %g vs %g", b, w.Now())
	}
	// After and At (in the past: at once) run their callbacks.
	done := make(chan struct{}, 2)
	w.After(0.001, func() { done <- struct{}{} })
	w.At(a-1, func() { done <- struct{}{} })
	<-done
	<-done
	if w.Now() <= a {
		t.Fatal("wall clock did not advance across a timer")
	}
}
