package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64, safe for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if v < 0 || math.IsNaN(v) {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative buckets. All
// methods are safe for concurrent use; Observe is lock-free.
type Histogram struct {
	upper   []float64 // sorted upper bounds, excluding +Inf
	counts  []atomic.Uint64
	inf     atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	ub := append([]float64(nil), buckets...)
	sort.Float64s(ub)
	// Drop duplicates and a trailing +Inf (implicit).
	dedup := ub[:0]
	for _, b := range ub {
		if math.IsInf(b, +1) {
			continue
		}
		if len(dedup) == 0 || b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{upper: dedup, counts: make([]atomic.Uint64, len(dedup))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Non-cumulative per-bin counts; exposition accumulates.
	idx := sort.SearchFloat64s(h.upper, v)
	if idx < len(h.upper) {
		h.counts[idx].Add(1)
	} else {
		h.inf.Add(1)
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.counts {
		total += h.counts[i].Load()
	}
	return total + h.inf.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with upper, the +Inf
// total, and the sum. The +Inf total equals the sum of every per-bin count
// read in this snapshot, so exposition invariants hold by construction.
func (h *Histogram) snapshot() (cum []uint64, total uint64, sum float64) {
	cum = make([]uint64, len(h.upper))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	total = run + h.inf.Load()
	return cum, total, h.Sum()
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets are the default stage-latency bounds in seconds: 50 µs up
// to ~26 s, doubling.
var LatencyBuckets = ExpBuckets(50e-6, 2, 20)

// kind discriminates family types for TYPE lines.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindGaugeFunc
	kindGaugeVecFunc
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// LabeledValue is one labeled sample of a GaugeVecFunc (or a vec snapshot):
// the label values in family label order and the current value.
type LabeledValue struct {
	Values []string
	V      float64
}

// family is one named metric with zero or more labeled children.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string // label names for vec families
	buckets []float64

	mu       sync.Mutex
	children map[string]*child     // label-values key → child
	order    []string              // insertion order of keys
	fn       func() float64        // kindGaugeFunc only
	vfn      func() []LabeledValue // kindGaugeVecFunc only
}

type child struct {
	values []string
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

func (f *family) child(values ...string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	// The key is joined on the stack: a lookup by string(key) does not
	// allocate, so only a new child's key is copied to the heap.
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, '\xff')
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[string(key)]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...)}
	switch f.kind {
	case kindCounter:
		c.ctr = &Counter{}
	case kindGauge:
		c.gauge = &Gauge{}
	case kindHistogram:
		c.hist = newHistogram(f.buckets)
	}
	k := string(key)
	f.children[k] = c
	f.order = append(f.order, k)
	return c
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values...).ctr }

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values...).gauge }

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values...).hist }

// Registry holds registered metric families and renders them in the
// Prometheus text exposition format. All methods are safe for concurrent
// use. Registering two families with the same name panics (programmer
// error, caught at startup).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func (r *Registry) add(name, help string, k kind, labels []string, buckets []float64) *family {
	if !validName.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName.MatchString(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on %s", l, name))
		}
	}
	f := &family{
		name: name, help: help, kind: k,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.families[name] = f
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.add(name, help, kindCounter, nil, nil).child().ctr
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.add(name, help, kindCounter, labels, nil)}
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.add(name, help, kindGauge, nil, nil).child().gauge
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.add(name, help, kindGauge, labels, nil)}
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — used to expose state owned elsewhere (queue depths, cache stats)
// without double bookkeeping.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.add(name, help, kindGaugeFunc, nil, nil)
	f.fn = fn
}

// GaugeVecFunc registers a labeled gauge family whose samples are computed
// by fn at scrape time — used for derived per-label values (e.g. windowed
// stage quantiles) without double bookkeeping. fn must return label value
// tuples matching the declared labels, in a deterministic order.
func (r *Registry) GaugeVecFunc(name, help string, fn func() []LabeledValue, labels ...string) {
	f := r.add(name, help, kindGaugeVecFunc, labels, nil)
	f.vfn = fn
}

// Histogram registers and returns an unlabeled histogram with the given
// bucket upper bounds (the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.add(name, help, kindHistogram, nil, buckets).child().hist
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.add(name, help, kindHistogram, labels, buckets)}
}

// escapeHelp escapes backslash and newline for HELP lines.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes backslash, double-quote and newline for label values.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...} for the given names/values, with extra
// appended last (used for histogram le). Empty when there are no labels.
func labelString(names, values []string, extra ...string) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, n, escapeLabel(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

// PrometheusContentType is the Content-Type HTTP scrape endpoints must
// send with WritePrometheus output: text exposition format 0.0.4,
// including the version parameter Prometheus content negotiation expects.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered family in the text exposition
// format (version 0.0.4), families sorted by name for deterministic
// output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		if f.kind == kindGaugeFunc {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.fn())); err != nil {
				return err
			}
			continue
		}
		if f.kind == kindGaugeVecFunc {
			for _, lv := range f.vfn() {
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
					labelString(f.labels, lv.Values), formatFloat(lv.V)); err != nil {
					return err
				}
			}
			continue
		}
		f.mu.Lock()
		children := make([]*child, 0, len(f.order))
		for _, key := range f.order {
			children = append(children, f.children[key])
		}
		f.mu.Unlock()
		for _, c := range children {
			if err := writeChild(w, f, c); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeChild(w io.Writer, f *family, c *child) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
			labelString(f.labels, c.values), formatFloat(c.ctr.Value()))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name,
			labelString(f.labels, c.values), formatFloat(c.gauge.Value()))
		return err
	case kindHistogram:
		cum, total, sum := c.hist.snapshot()
		for i, ub := range c.hist.upper {
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, c.values, "le", formatFloat(ub)), cum[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
			labelString(f.labels, c.values, "le", "+Inf"), total); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name,
			labelString(f.labels, c.values), formatFloat(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name,
			labelString(f.labels, c.values), total)
		return err
	}
	return nil
}

// String renders the registry to a string (convenience for tests/CLIs).
func (r *Registry) String() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}
