package obs

import (
	"math"
	"testing"
)

// Edge-case coverage for the windowed estimators the alerting and
// quantile gauges lean on: empty windows, single samples, exact
// window-boundary expiry, and the nearest-rank monotonicity property.

func TestWindowQuantileSingleSample(t *testing.T) {
	q := NewWindowQuantile(10, 0)
	q.Observe(1.0, 42.0)
	for _, p := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
		if got := q.Quantile(1.0, p); got != 42 {
			t.Fatalf("P%g of single sample = %g, want 42", p*100, got)
		}
	}
	if got := q.Count(1.0); got != 1 {
		t.Fatalf("count = %d", got)
	}
}

func TestWindowQuantileBoundaryExpiry(t *testing.T) {
	q := NewWindowQuantile(10, 0)
	q.Observe(5.0, 1.0)
	// A sample exactly window seconds old sits ON the cut and survives
	// (prune drops strictly-older samples), matching the alert evaluator's
	// window semantics.
	if got := q.Count(15.0); got != 1 {
		t.Fatalf("count at exact boundary = %d, want 1", got)
	}
	if got := q.Quantile(15.0, 0.5); got != 1 {
		t.Fatalf("P50 at exact boundary = %g, want 1", got)
	}
	// One instant past the boundary it is gone and the window reads empty.
	if got := q.Count(15.5); got != 0 {
		t.Fatalf("count past boundary = %d, want 0", got)
	}
	if got := q.Quantile(15.5, 0.5); !math.IsNaN(got) {
		t.Fatalf("P50 past boundary = %g, want NaN", got)
	}
}

func TestWindowQuantileMonotonicity(t *testing.T) {
	// Property: for any sample set, the quantile function is monotone
	// non-decreasing in p and bounded by [min, max]. Samples come from a
	// fixed LCG so the test is deterministic.
	q := NewWindowQuantile(0, 0)
	seed := uint64(12345)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 500; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := float64(seed>>40) / float64(1<<24)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		q.Observe(1.0, v)
	}
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		got := q.Quantile(1.0, p)
		if got < prev {
			t.Fatalf("quantile not monotone: P%.0f=%g < P%.0f=%g", p*100, got, (p-0.01)*100, prev)
		}
		if got < lo || got > hi {
			t.Fatalf("P%.0f=%g outside [%g,%g]", p*100, got, lo, hi)
		}
		prev = got
	}
	if q.Quantile(1.0, 0) != lo || q.Quantile(1.0, 1) != hi {
		t.Fatalf("extremes: P0=%g P100=%g, want %g/%g", q.Quantile(1.0, 0), q.Quantile(1.0, 1), lo, hi)
	}
}

// Dist shares quantileOf with the window estimators but reads 0, not NaN,
// with no samples.
func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Count() != 0 || d.Mean() != 0 || d.P95() != 0 || d.P99() != 0 || d.Max() != 0 || d.Sum() != 0 {
		t.Fatalf("empty Dist: %s", d.Summary())
	}
}

func TestDistBasicStats(t *testing.T) {
	var d Dist
	for _, v := range []float64{3, 1, 4, 1, 5} {
		d.Add(v)
	}
	if d.Count() != 5 || math.Abs(d.Mean()-2.8) > 1e-12 || d.Max() != 5 || d.Sum() != 14 || d.P50() != 3 {
		t.Fatalf("stats of {3,1,4,1,5}: %s sum=%g", d.Summary(), d.Sum())
	}
}

func TestDistQuantileNearestRank(t *testing.T) {
	var r Dist
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if r.P95() != 95 || r.P99() != 99 {
		t.Fatalf("nearest rank of 1..100: P95=%g P99=%g", r.P95(), r.P99())
	}
	if r.Quantile(0) != 1 || r.Quantile(1) != 100 {
		t.Fatal("extreme quantiles wrong")
	}
	if r.Quantile(-0.5) != 1 || r.Quantile(1.5) != 100 {
		t.Fatal("out-of-range quantiles should clamp")
	}
}

// An Add that follows a quantile must re-sort the samples.
func TestDistAddAfterQuantileResorts(t *testing.T) {
	var d Dist
	for _, v := range []float64{3, 1, 4, 1, 5} {
		d.Add(v)
	}
	_ = d.P50() // forces sort
	d.Add(0)
	if d.Quantile(0) != 0 || d.Quantile(-0.5) != 0 || d.Quantile(1.5) != 5 {
		t.Fatal("stale order after Add, or out-of-range q not clamped")
	}
}

func TestDistSummaryContainsFields(t *testing.T) {
	var r Dist
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if s := r.Summary(); s != "n=100 mean=50.500 p50=50.000 p95=95.000 p99=99.000 max=100.000" {
		t.Fatalf("Summary = %q", s)
	}
}

func TestTracerDropHook(t *testing.T) {
	tr := NewTracer(2)
	var drops int
	tr.OnDrop(func() { drops++ })
	for i := 0; i < 5; i++ {
		tr.Record(Span{Request: uint64(i), Name: "s", Cat: "t", Start: float64(i), Dur: 0.1})
	}
	if drops != 3 {
		t.Fatalf("drop hook fired %d times, want 3", drops)
	}
	// Every recorded span is either retained or reported to the hook.
	if kept := uint64(len(tr.Snapshot())); kept+uint64(drops) != tr.Total() {
		t.Fatalf("retained %d + dropped %d != total %d", kept, drops, tr.Total())
	}
}
