package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// WindowQuantile is a sliding-time-window quantile estimator: it retains
// timestamped samples no older than the window (and at most a fixed cap)
// and answers nearest-rank quantiles over the retained set. Observations
// carry explicit clock timestamps so the estimator is clock-agnostic —
// virtual seconds under the simulators, wall seconds under serve — and a
// replayed run produces bit-identical snapshots to a simulated one.
//
// The estimator is exact over its window (it keeps the samples), which is
// the right trade for this plane: per-stage sample rates are bounded by
// the step rate, and exactness is what lets the differential-replay test
// compare sim and real byte for byte.
type WindowQuantile struct {
	mu     sync.Mutex
	window float64 // seconds; <=0 means unbounded
	cap    int     // max retained samples; <=0 means DefaultQuantileCap
	ts     []float64
	vs     []float64
	count  uint64  // all observations ever
	sum    float64 // over all observations ever
}

// Default quantile sizing: ten minutes of samples, bounded per window.
const (
	DefaultQuantileWindow = 600.0
	DefaultQuantileCap    = 8192
)

// NewWindowQuantile returns an estimator over the given window (seconds;
// <=0 keeps everything up to cap) retaining at most cap samples (<=0 uses
// DefaultQuantileCap).
func NewWindowQuantile(window float64, cap int) *WindowQuantile {
	if cap <= 0 {
		cap = DefaultQuantileCap
	}
	return &WindowQuantile{window: window, cap: cap}
}

// Observe records one sample at clock time now.
func (q *WindowQuantile) Observe(now, v float64) {
	if math.IsNaN(v) {
		return
	}
	q.mu.Lock()
	q.prune(now)
	if len(q.vs) == q.cap { // window still full: drop the oldest
		q.ts = q.ts[1:]
		q.vs = q.vs[1:]
	}
	q.ts = append(q.ts, now)
	q.vs = append(q.vs, v)
	q.count++
	q.sum += v
	q.mu.Unlock()
}

// prune drops samples older than now-window. Callers hold q.mu.
func (q *WindowQuantile) prune(now float64) {
	if q.window <= 0 {
		return
	}
	cut := now - q.window
	i := 0
	for i < len(q.ts) && q.ts[i] < cut {
		i++
	}
	if i > 0 {
		q.ts = append(q.ts[:0], q.ts[i:]...)
		q.vs = append(q.vs[:0], q.vs[i:]...)
	}
}

// Count returns how many samples the window retains at clock time now.
func (q *WindowQuantile) Count(now float64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.prune(now)
	return len(q.vs)
}

// Total returns the all-time observation count and sum (not windowed).
func (q *WindowQuantile) Total() (count uint64, sum float64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count, q.sum
}

// Values returns the retained samples at clock time now, sorted ascending.
func (q *WindowQuantile) Values(now float64) []float64 {
	q.mu.Lock()
	q.prune(now)
	out := append([]float64(nil), q.vs...)
	q.mu.Unlock()
	sort.Float64s(out)
	return out
}

// Quantile returns the nearest-rank p-quantile (0 ≤ p ≤ 1) over the
// window at clock time now, or NaN when the window is empty.
func (q *WindowQuantile) Quantile(now, p float64) float64 {
	vals := q.Values(now)
	return quantileOf(vals, p)
}

// quantileOf is the shared nearest-rank rule over a sorted sample set.
func quantileOf(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// Dist holds every scalar sample it is given (seconds, ratios, counts) and
// answers the same nearest-rank quantiles as WindowQuantile, without a
// window or a clock: the offline statistics of a finished run. The zero
// value is ready to use and every statistic is 0 with no samples (not NaN:
// the reports built from it are JSON). Not safe for concurrent use.
type Dist struct {
	vs     []float64
	sorted bool
}

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.vs = append(d.vs, v)
	d.sorted = false
}

// Count returns the number of samples.
func (d *Dist) Count() int { return len(d.vs) }

// Sum returns the total of all samples.
func (d *Dist) Sum() float64 {
	var sum float64
	for _, v := range d.vs {
		sum += v
	}
	return sum
}

// Mean returns the arithmetic mean.
func (d *Dist) Mean() float64 {
	if len(d.vs) == 0 {
		return 0
	}
	return d.Sum() / float64(len(d.vs))
}

// Max returns the largest sample.
func (d *Dist) Max() float64 {
	var max float64
	for i, v := range d.vs {
		if i == 0 || v > max {
			max = v
		}
	}
	return max
}

// Quantile returns the nearest-rank q-quantile (0 ≤ q ≤ 1, clamped).
func (d *Dist) Quantile(q float64) float64 {
	if len(d.vs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.vs)
		d.sorted = true
	}
	return quantileOf(d.vs, q)
}

// P50, P95 and P99 are the conventional percentile shorthands.
func (d *Dist) P50() float64 { return d.Quantile(0.50) }
func (d *Dist) P95() float64 { return d.Quantile(0.95) }
func (d *Dist) P99() float64 { return d.Quantile(0.99) }

// Summary formats the headline statistics.
func (d *Dist) Summary() string {
	return fmt.Sprintf("n=%d mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f",
		d.Count(), d.Mean(), d.P50(), d.P95(), d.P99(), d.Max())
}

// QuantileVec is a keyed family of WindowQuantile estimators (one per
// stage name), creating members on first use and remembering insertion
// order for deterministic iteration.
type QuantileVec struct {
	mu     sync.Mutex
	window float64
	cap    int
	m      map[string]*WindowQuantile
	order  []string
}

// NewQuantileVec returns an empty family whose members use the given
// window and cap (see NewWindowQuantile).
func NewQuantileVec(window float64, cap int) *QuantileVec {
	return &QuantileVec{window: window, cap: cap, m: make(map[string]*WindowQuantile)}
}

// With returns the estimator for key, creating it on first use.
func (v *QuantileVec) With(key string) *WindowQuantile {
	v.mu.Lock()
	defer v.mu.Unlock()
	if q, ok := v.m[key]; ok {
		return q
	}
	q := NewWindowQuantile(v.window, v.cap)
	v.m[key] = q
	v.order = append(v.order, key)
	return q
}

// Keys returns the member keys sorted alphabetically (stable across runs
// regardless of observation order).
func (v *QuantileVec) Keys() []string {
	v.mu.Lock()
	out := append([]string(nil), v.order...)
	v.mu.Unlock()
	sort.Strings(out)
	return out
}
