package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	var drops int
	tr.OnDrop(func() { drops++ })
	for i := 0; i < 10; i++ {
		tr.Record(Span{Request: uint64(i), Name: "s", Start: float64(i) * 1e-3})
	}
	if tr.Total() != 10 {
		t.Fatalf("total = %d", tr.Total())
	}
	if drops != 6 {
		t.Fatalf("dropped = %d", drops)
	}
	got := tr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d spans", len(got))
	}
	// Oldest-first: requests 6..9 survive.
	for i, s := range got {
		if s.Request != uint64(6+i) {
			t.Fatalf("snapshot[%d].Request = %d want %d", i, s.Request, 6+i)
		}
	}
}

func TestChromeJSONExport(t *testing.T) {
	tr := NewTracer(64)
	// Virtual-time spans anchored near the epoch: a parent request span
	// enclosing three stage spans. Under the old time.Time API these all
	// collapsed onto Unix microsecond 0; the clock-seconds API must keep
	// their relative placement.
	base := 1.25 // clock seconds
	tr.Record(Span{Request: 1, Name: "request", Cat: "serve", Start: base, Dur: 0.100})
	tr.Record(Span{Request: 1, Name: "queue", Cat: "serve", Start: base + 0.001, Dur: 0.010})
	tr.Record(Span{Request: 1, Name: "denoise_step", Cat: "engine", TID: 2,
		Start: base + 0.020, Dur: 0.005, Args: Arg("step", 0).And("batch", 3)})
	tr.Record(Span{Request: 1, Name: "postprocess", Cat: "cpu", TID: 1, Start: base + 0.080, Dur: 0.015})

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Ph   string             `json:"ph"`
			TS   int64              `json:"ts"`
			Dur  int64              `json:"dur"`
			PID  int                `json:"pid"`
			TID  int                `json:"tid"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 4 {
		t.Fatalf("events = %d", len(out.TraceEvents))
	}
	var reqTS, reqEnd int64
	for _, e := range out.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q ph = %q", e.Name, e.Ph)
		}
		if e.Args["request"] != 1 {
			t.Fatalf("event %q missing request arg: %v", e.Name, e.Args)
		}
		if e.Name == "request" {
			reqTS, reqEnd = e.TS, e.TS+e.Dur
		}
	}
	if reqTS != 1250000 || reqEnd != 1350000 {
		t.Fatalf("request span at [%d,%d] µs, want [1250000,1350000]", reqTS, reqEnd)
	}
	// Stage spans nest within the parent request span.
	for _, e := range out.TraceEvents {
		if e.Name == "request" {
			continue
		}
		if e.TS < reqTS || e.TS+e.Dur > reqEnd {
			t.Fatalf("span %q [%d,%d] outside request [%d,%d]",
				e.Name, e.TS, e.TS+e.Dur, reqTS, reqEnd)
		}
	}
	// Timestamps are monotonic in recorded order here.
	for i := 1; i < len(out.TraceEvents); i++ {
		if out.TraceEvents[i].TS < out.TraceEvents[i-1].TS {
			t.Fatalf("timestamps not monotonic: %d after %d",
				out.TraceEvents[i].TS, out.TraceEvents[i-1].TS)
		}
	}
	if out.TraceEvents[2].Args["batch"] != 3 {
		t.Fatalf("args lost: %v", out.TraceEvents[2].Args)
	}
}

func TestCausalIDsDeterministicAndParseable(t *testing.T) {
	if TraceID(1) != TraceID(1) || TraceID(1) == TraceID(2) {
		t.Fatal("TraceID not a deterministic injection on small ids")
	}
	if TraceID(1) == 0 || TraceID(1) > causalMask {
		t.Fatalf("TraceID out of 48-bit range: %x", TraceID(1))
	}
	tr := TraceID(7)
	if SpanID(tr, "queue", 0) == SpanID(tr, "inference", 0) {
		t.Fatal("SpanID collides across names")
	}
	if SpanID(tr, "denoise_step", 1) == SpanID(tr, "denoise_step", 2) {
		t.Fatal("SpanID collides across indices")
	}
	s := FormatTraceID(tr)
	if len(s) != 12 {
		t.Fatalf("formatted id %q not 12 hex digits", s)
	}
	got, err := ParseTraceID(s)
	if err != nil || got != tr {
		t.Fatalf("parse(%q) = %x, %v", s, got, err)
	}
	if got, err := ParseTraceID("0x" + s); err != nil || got != tr {
		t.Fatalf("parse with prefix = %x, %v", got, err)
	}
	for _, bad := range []string{"", "zz", "0"} {
		if _, err := ParseTraceID(bad); err == nil {
			t.Fatalf("ParseTraceID(%q) should fail", bad)
		}
	}
}

func TestChromeJSONTraceFilterRoundTrip(t *testing.T) {
	tr := NewTracer(64)
	for req := uint64(1); req <= 3; req++ {
		trace := TraceID(req)
		root := SpanID(trace, "request", 0)
		tr.Record(Span{Request: req, Name: "request", Cat: "core", Start: float64(req), Dur: 1,
			Trace: trace, ID: root})
		tr.Record(Span{Request: req, Name: "queue", Cat: "core", Start: float64(req), Dur: 0.1,
			Trace: trace, ID: SpanID(trace, "queue", 0), Parent: root,
			Args: Arg("depth", 2)})
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeJSONTrace(&buf, TraceID(2)); err != nil {
		t.Fatal(err)
	}
	spans, err := SpansFromChromeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Filtered to request 2's two spans, causal identity intact.
	if len(spans) != 2 {
		t.Fatalf("filtered spans = %d, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Request != 2 || s.Trace != TraceID(2) || s.ID == 0 {
			t.Fatalf("bad reconstructed span %+v", s)
		}
	}
	if spans[1].Parent != spans[0].ID || spans[1].Args != Arg("depth", 2) {
		t.Fatalf("edge or args lost: %+v", spans[1])
	}
	// The reconstructed spans render as a tree.
	var tree bytes.Buffer
	if err := RenderSpanTree(&tree, spans, TraceID(2)); err != nil {
		t.Fatal(err)
	}
}

func TestTracerConcurrent(t *testing.T) {
	// Concurrent writers + exporter; run under -race.
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Record(Span{Request: uint64(g), Name: fmt.Sprintf("s%d", i%4), Cat: "t",
					TID: g, Start: float64(i) * 1e-6, Dur: 1e-6})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := tr.WriteChromeJSON(&buf); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	if tr.Total() != 1600 {
		t.Fatalf("total = %d", tr.Total())
	}
	if got := len(tr.Snapshot()); got != 128 {
		t.Fatalf("retained = %d", got)
	}
}

// TestRecordSpanWithArgsZeroAllocs pins the hot path's span budget: a span
// with two annotations, recorded through the plane (ring + stage
// histograms) the way the serving plane records a denoise step, allocates
// nothing — the annotations live in the span. The map form converts
// without allocating either.
func TestRecordSpanWithArgsZeroAllocs(t *testing.T) {
	p := NewPlane(PlaneConfig{TraceRing: 64})
	trace := TraceID(9)
	step := 0.0
	record := func() {
		step++
		p.RecordSpan(Span{Request: 9, Name: "denoise_step", Cat: "serve", TID: 1, Start: step, Dur: 0.002,
			Args:  Arg("step", step).And("batch", 2),
			Trace: trace, ID: SpanID(trace, "denoise_step", uint64(step)), Parent: SpanID(trace, "request", 0)})
	}
	record() // creates the stage's histogram children
	if n := testing.AllocsPerRun(200, record); n != 0 {
		t.Fatalf("RecordSpan with two args: %v allocs/op, want 0", n)
	}
	args := map[string]float64{"step": 3, "batch": 2}
	if n := testing.AllocsPerRun(200, func() {
		p.SpanCausal(9, "denoise_step", "serve", 1, 1.5, 0.002, trace, 1, 2, args)
	}); n != 0 {
		t.Fatalf("SpanCausal with a two-entry map: %v allocs/op, want 0", n)
	}
	last := p.Tracer.Snapshot()
	if got := last[len(last)-1].Args; got != Arg("batch", 2).And("step", 3) {
		t.Fatalf("map args converted to %+v, want batch then step", got)
	}
}

// TestSpanArgsOrderAndJSON: exports render annotations by ascending key
// whatever order they were given in, and a span's JSON form is the object
// it was when annotations were a map.
func TestSpanArgsOrderAndJSON(t *testing.T) {
	a := Arg("step", 3).And("batch", 2)
	if got := a.sorted(); len(got) != 2 || got[0].Key != "batch" || got[1].Key != "step" {
		t.Fatalf("sorted = %+v", got)
	}
	if got := (SpanArgs{}).And("only", 1).sorted(); len(got) != 1 || got[0].Key != "only" {
		t.Fatalf("sorted with a hole = %+v", got)
	}
	if v, ok := a.Get("batch"); !ok || v != 2 {
		t.Fatalf("Get(batch) = %v, %v", v, ok)
	}
	if _, ok := a.Get(""); ok {
		t.Fatal("the empty key is no annotation")
	}
	if got := ArgsFromMap(map[string]float64{"c": 3, "a": 1, "b": 2}); got != Arg("a", 1).And("b", 2) {
		t.Fatalf("three-entry map kept %+v, want the two smallest keys", got)
	}
	b, err := json.Marshal(Span{Request: 1, Name: "n", Cat: "c", Args: a})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"request":1,"name":"n","cat":"c","tid":0,"start":0,"dur":0,"args":{"batch":2,"step":3}}`; string(b) != want {
		t.Fatalf("span JSON = %s\nwant        %s", b, want)
	}
	if b, _ = json.Marshal(Span{Request: 1, Name: "n", Cat: "c"}); strings.Contains(string(b), "args") {
		t.Fatalf("span without annotations still writes args: %s", b)
	}
	var back Span
	if err := json.Unmarshal([]byte(`{"request":1,"name":"n","cat":"c","args":{"step":3,"batch":2}}`), &back); err != nil || back.Args != Arg("batch", 2).And("step", 3) {
		t.Fatalf("unmarshal: %v, %+v", err, back)
	}
}
