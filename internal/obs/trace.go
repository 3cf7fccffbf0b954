package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
)

// Span is one timed stage of a request's life. Request ties spans of the
// same request together; TID identifies the executing resource (worker id
// for engine stages, pool ids for CPU stages) and becomes the Chrome trace
// thread id, so each worker renders as its own track.
//
// Start and Dur are clock seconds (see Clock): virtual seconds under the
// simulation drivers, wall seconds since process start under serve. Spans
// deliberately do not carry time.Time — a raw wall timestamp would
// collapse every virtual-time span onto the epoch.
//
// Trace/ID/Parent are the span's causal identity: Trace groups every span
// of one request under its deterministic trace id (TraceID), ID names this
// span within the trace (SpanID), and Parent names the span it hangs
// under (0 for the request root). All three are zero on legacy non-causal
// spans, which export exactly as before.
type Span struct {
	Request uint64
	Name    string
	Cat     string
	TID     int
	Start   float64 // clock seconds
	Dur     float64 // seconds
	// Args carries small numeric annotations (step index, batch size,
	// mask ratio) into the trace viewer.
	Args SpanArgs

	Trace  uint64
	ID     uint64
	Parent uint64
}

// SpanArg is one numeric annotation of a span; an empty Key is no
// annotation.
type SpanArg struct {
	Key string
	Val float64
}

// SpanArgs is a span's annotations, held inline: a span is recorded on
// every denoising step of every request and retained by the trace ring, and
// a map per span was both the hot path's allocation and, 65 536 spans deep,
// as many bytes as the ring itself. No stage annotates more than two values.
// Build one with Arg(k, v) and Arg(k, v).And(k2, v2); the zero value is no
// annotations.
type SpanArgs [2]SpanArg

// Arg returns the annotations {key: val}.
func Arg(key string, val float64) SpanArgs { return SpanArgs{{key, val}} }

// And returns a with a second annotation added.
func (a SpanArgs) And(key string, val float64) SpanArgs {
	a[1] = SpanArg{key, val}
	return a
}

// Get returns the annotation under key.
func (a SpanArgs) Get(key string) (float64, bool) {
	for _, kv := range a {
		if kv.Key == key && key != "" {
			return kv.Val, true
		}
	}
	return 0, false
}

// sorted returns the annotations present, ascending by key — the order
// every export renders them in.
func (a SpanArgs) sorted() []SpanArg {
	if a[0].Key == "" {
		a[0], a[1] = a[1], SpanArg{}
	}
	if a[1].Key != "" && a[1].Key < a[0].Key {
		a[0], a[1] = a[1], a[0]
	}
	n := 0
	for n < len(a) && a[n].Key != "" {
		n++
	}
	return a[:n]
}

// ArgsFromMap converts the map form of annotations; of more than two it
// keeps the two smallest keys.
func ArgsFromMap(m map[string]float64) SpanArgs {
	var a SpanArgs
	for k, v := range m {
		switch kv := (SpanArg{k, v}); {
		case a[0].Key == "" || k < a[0].Key:
			a[0], a[1] = kv, a[0]
		case a[1].Key == "" || k < a[1].Key:
			a[1] = kv
		}
	}
	return a
}

// asMap returns the annotations as a map, nil when there are none.
func (a SpanArgs) asMap() map[string]float64 {
	kvs := a.sorted()
	if len(kvs) == 0 {
		return nil
	}
	m := make(map[string]float64, len(kvs))
	for _, kv := range kvs {
		m[kv.Key] = kv.Val
	}
	return m
}

// spanJSON is Span's wire form (the flight recorder's): annotations as a
// JSON object, as they were when Span held a map.
type spanJSON struct {
	Request uint64             `json:"request"`
	Name    string             `json:"name"`
	Cat     string             `json:"cat"`
	TID     int                `json:"tid"`
	Start   float64            `json:"start"`
	Dur     float64            `json:"dur"`
	Args    map[string]float64 `json:"args,omitempty"`
	Trace   uint64             `json:"trace,omitempty"`
	ID      uint64             `json:"span,omitempty"`
	Parent  uint64             `json:"parent,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(spanJSON{s.Request, s.Name, s.Cat, s.TID, s.Start, s.Dur,
		s.Args.asMap(), s.Trace, s.ID, s.Parent})
}

// UnmarshalJSON implements json.Unmarshaler.
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = Span{j.Request, j.Name, j.Cat, j.TID, j.Start, j.Dur,
		ArgsFromMap(j.Args), j.Trace, j.ID, j.Parent}
	return nil
}

// causalMask keeps trace and span ids inside 48 bits so they survive a
// round trip through Chrome-trace float64 args losslessly (float64 holds
// 53 integer bits exactly).
const causalMask = (1 << 48) - 1

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection
// on uint64 — no RNG, no state, so both drivers derive identical ids.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// TraceID derives a request's deterministic trace id from its request id.
// Both drivers of a differential replay assign the same ids because the
// derivation consults nothing but the request id — no RNG, no wall time.
// The result is 48-bit, never zero.
func TraceID(req uint64) uint64 {
	id := mix64(req+0x9E3779B97F4A7C15) & causalMask
	if id == 0 {
		id = 1
	}
	return id
}

// SpanID derives a deterministic span id within a trace from the span's
// stage name and an occurrence index (step index for repeated stages, 0
// otherwise). 48-bit, never zero.
func SpanID(trace uint64, name string, idx uint64) uint64 {
	h := trace
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001B3
	}
	id := mix64(h^(idx*0x9E3779B97F4A7C15)) & causalMask
	if id == 0 {
		id = 1
	}
	return id
}

// FormatTraceID renders a trace or span id the way the API echoes it:
// 12 hex digits (48 bits).
func FormatTraceID(id uint64) string { return fmt.Sprintf("%012x", id) }

// ParseTraceID parses the hex form FormatTraceID produces (an optional
// 0x prefix is accepted).
func ParseTraceID(s string) (uint64, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil || id == 0 {
		return 0, fmt.Errorf("obs: bad trace id %q", s)
	}
	return id, nil
}

// End returns the span's completion time in clock seconds.
func (s Span) End() float64 { return s.Start + s.Dur }

// Tracer records spans into a bounded ring buffer. Record is cheap — one
// short critical section copying a struct — so it can sit on the serving
// hot path; when the ring wraps, the oldest spans are dropped. The ring's
// storage doubles up to its bound as spans arrive: a replica that has
// recorded a few thousand spans does not carry (and the collector does not
// pace the heap by) the 9 MB the full ring takes.
type Tracer struct {
	mu     sync.Mutex
	ring   []Span
	size   int    // the bound on len(ring)
	next   uint64 // total spans ever recorded
	onDrop func()
}

// DefaultTraceRing is the default ring capacity (spans).
const DefaultTraceRing = 1 << 16

// NewTracer returns a tracer holding at most size spans (DefaultTraceRing
// when size <= 0).
func NewTracer(size int) *Tracer {
	if size <= 0 {
		size = DefaultTraceRing
	}
	return &Tracer{ring: make([]Span, 0, min(size, minTraceRing)), size: size}
}

// minTraceRing is the ring's initial capacity in spans.
const minTraceRing = 1024

// Record appends a span, evicting the oldest when the ring is full.
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	var dropped func()
	if len(t.ring) < t.size {
		if len(t.ring) == cap(t.ring) {
			t.ring = append(make([]Span, 0, min(t.size, 2*cap(t.ring))), t.ring...)
		}
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.next%uint64(t.size)] = s
		dropped = t.onDrop
	}
	t.next++
	t.mu.Unlock()
	if dropped != nil {
		dropped()
	}
}

// OnDrop registers a hook invoked once per evicted span (the plane uses
// it to feed flashps_trace_spans_dropped_total).
func (t *Tracer) OnDrop(fn func()) {
	t.mu.Lock()
	t.onDrop = fn
	t.mu.Unlock()
}

// Total returns how many spans were ever recorded (including dropped).
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Snapshot returns the retained spans oldest-first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.ring))
	if len(t.ring) < t.size || t.next == 0 {
		return append(out, t.ring...)
	}
	head := int(t.next % uint64(t.size)) // oldest retained span
	out = append(out, t.ring[head:]...)
	return append(out, t.ring[:head]...)
}

// chromeEvent is one Chrome trace_event entry: "complete" (ph=X) spans,
// plus flow start/finish pairs (ph=s/f) binding causal parent→child edges.
type chromeEvent struct {
	Name string             `json:"name"`
	Cat  string             `json:"cat"`
	Ph   string             `json:"ph"`
	TS   int64              `json:"ts"`  // microseconds
	Dur  int64              `json:"dur"` // microseconds
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	ID   string             `json:"id,omitempty"` // flow binding id (hex span id)
	BP   string             `json:"bp,omitempty"` // "e" on flow finish: bind to enclosing slice
	Args map[string]float64 `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeJSON exports the retained spans as Chrome trace_event JSON
// (the "JSON Object Format" with a traceEvents array), loadable in
// chrome://tracing and Perfetto. Timestamps are the spans' clock seconds
// converted to microseconds — virtual microseconds from the simulation
// drivers, wall microseconds since process start from serve; each span
// carries its request id in args so a request's stages can be grouped in
// the viewer.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	return t.WriteChromeJSONTrace(w, 0)
}

// WriteChromeJSONTrace exports the retained spans, filtered to one causal
// trace when trace is nonzero (0 exports everything). Causal spans carry
// trace_id/span_id/parent_id args, and every parent→child edge whose
// parent span is still retained additionally emits a flow start/finish
// pair (ph=s/f bound by the child's hex span id), so a single request
// renders as a connected tree in Perfetto. Legacy spans without causal
// ids export byte-identically to the pre-causal format.
func (t *Tracer) WriteChromeJSONTrace(w io.Writer, trace uint64) error {
	spans := t.Snapshot()
	if trace != 0 {
		kept := make([]Span, 0, 16)
		for _, s := range spans {
			if s.Trace == trace {
				kept = append(kept, s)
			}
		}
		spans = kept
	}
	byID := make(map[uint64]Span)
	for _, s := range spans {
		if s.Trace != 0 && s.ID != 0 {
			byID[s.ID] = s
		}
	}
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(spans)), DisplayTimeUnit: "ms"}
	for _, s := range spans {
		args := make(map[string]float64, len(s.Args)+4)
		for _, kv := range s.Args.sorted() {
			args[kv.Key] = kv.Val
		}
		args["request"] = float64(s.Request)
		if s.Trace != 0 {
			args["trace_id"] = float64(s.Trace)
			args["span_id"] = float64(s.ID)
			if s.Parent != 0 {
				args["parent_id"] = float64(s.Parent)
			}
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS:  int64(math.Round(s.Start * 1e6)),
			Dur: int64(math.Round(s.Dur * 1e6)),
			PID: 1, TID: s.TID,
			Args: args,
		})
	}
	// Flow pairs after the slices, in span order: deterministic output for
	// the differential-replay byte comparison.
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			continue // parent evicted from the ring: no edge to draw
		}
		id := FormatTraceID(s.ID)
		out.TraceEvents = append(out.TraceEvents,
			chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "s",
				TS:  int64(math.Round(parent.Start * 1e6)),
				PID: 1, TID: parent.TID, ID: id,
			},
			chromeEvent{
				Name: s.Name, Cat: s.Cat, Ph: "f", BP: "e",
				TS:  int64(math.Round(s.Start * 1e6)),
				PID: 1, TID: s.TID, ID: id,
			})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// SpansFromChromeJSON reconstructs causal spans from a Chrome trace
// export (the inverse of WriteChromeJSONTrace for ph=X events): the
// flashps-trace -explain renderer uses it to rebuild a span tree from a
// trace.json artifact. Non-causal events come back with zero causal ids.
func SpansFromChromeJSON(r io.Reader) ([]Span, error) {
	var in chromeTrace
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	var spans []Span
	for _, e := range in.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		s := Span{
			Name: e.Name, Cat: e.Cat, TID: e.TID,
			Start: float64(e.TS) / 1e6, Dur: float64(e.Dur) / 1e6,
		}
		args := make(map[string]float64, len(e.Args))
		for k, v := range e.Args {
			switch k {
			case "request":
				s.Request = uint64(v)
			case "trace_id":
				s.Trace = uint64(v)
			case "span_id":
				s.ID = uint64(v)
			case "parent_id":
				s.Parent = uint64(v)
			default:
				args[k] = v
			}
		}
		s.Args = ArgsFromMap(args)
		spans = append(spans, s)
	}
	return spans, nil
}
