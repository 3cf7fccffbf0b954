package obs

import (
	"bytes"
	"testing"
)

func TestFlightRecorderWrap(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(FlightEvent{T: float64(i), Kind: "decision", Replica: -1})
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d", r.Dropped())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d events", len(got))
	}
	// Oldest-first: t=6..9 survive.
	for i, ev := range got {
		if ev.T != float64(6+i) {
			t.Fatalf("snapshot[%d].T = %g want %d", i, ev.T, 6+i)
		}
	}
}

func TestFlightSnapshotRoundTrip(t *testing.T) {
	now := 3.5
	p := NewPlane(PlaneConfig{Clock: ClockFunc(func() float64 { return now })})
	p.RecordFlight("admission_reject", 42, -1, "rate_limited")
	p.RecordFlight("scale_up", 0, 2, "slo_breach")
	trace := TraceID(42)
	p.SpanCausal(42, "request", "core", 0, 1.0, 2.5, trace, SpanID(trace, "request", 0), 0,
		map[string]float64{"mask_ratio": 0.2})

	snap := p.FlightSnapshot("test")
	if snap.Reason != "test" || snap.ClockSeconds != 3.5 {
		t.Fatalf("snapshot header = %q/%g", snap.Reason, snap.ClockSeconds)
	}
	if len(snap.Alerts) != len(DefaultSLOClasses) {
		t.Fatalf("alerts = %d classes", len(snap.Alerts))
	}
	if len(snap.Events) != 2 || len(snap.Spans) != 1 {
		t.Fatalf("events/spans = %d/%d", len(snap.Events), len(snap.Spans))
	}
	// A request-linked event carries the hex trace id; a replica event
	// carries none.
	if snap.Events[0].Trace != FormatTraceID(trace) {
		t.Fatalf("reject trace = %q, want %q", snap.Events[0].Trace, FormatTraceID(trace))
	}
	if snap.Events[1].Trace != "" || snap.Events[1].Replica != 2 {
		t.Fatalf("scale event = %+v", snap.Events[1])
	}

	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFlightSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != snap.Reason || got.ClockSeconds != snap.ClockSeconds ||
		len(got.Events) != len(snap.Events) || len(got.Spans) != len(snap.Spans) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Spans[0].Trace != trace || got.Spans[0].Args != Arg("mask_ratio", 0.2) {
		t.Fatalf("span lost in round trip: %+v", got.Spans[0])
	}
	if got.Events[0].Kind != "admission_reject" || got.Events[0].Detail != "rate_limited" {
		t.Fatalf("event lost in round trip: %+v", got.Events[0])
	}
}
