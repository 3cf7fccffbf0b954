package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderSpanTree(t *testing.T) {
	const req = 7
	trace := TraceID(req)
	root := SpanID(trace, "request", 0)
	spans := []Span{
		{Request: req, Name: "request", Cat: "core", TID: 1, Start: 2.0, Dur: 1.0,
			Trace: trace, ID: root, Args: Arg("mask_ratio", 0.25)},
		{Request: req, Name: "queue", Cat: "core", TID: 1, Start: 2.0, Dur: 0.05,
			Trace: trace, ID: SpanID(trace, "queue", 0), Parent: root},
		{Request: req, Name: "inference", Cat: "core", TID: 1, Start: 2.05, Dur: 0.8,
			Trace: trace, ID: SpanID(trace, "inference", 0), Parent: root},
		{Request: req, Name: "postprocess", Cat: "core", TID: 1, Start: 2.85, Dur: 0.15,
			Trace: trace, ID: SpanID(trace, "postprocess", 0), Parent: root},
		// Noise from another trace must be filtered out.
		{Request: 9, Name: "request", Cat: "core", TID: 0, Start: 0, Dur: 1,
			Trace: TraceID(9), ID: SpanID(TraceID(9), "request", 0)},
	}
	var buf bytes.Buffer
	if err := RenderSpanTree(&buf, spans, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], FormatTraceID(trace)) ||
		!strings.Contains(lines[0], "request 7") ||
		!strings.Contains(lines[0], "4 spans") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "request") || !strings.Contains(lines[1], "mask_ratio=0.25") {
		t.Fatalf("bad root line: %q", lines[1])
	}
	// Children in start order: queue, inference, then postprocess closing
	// the branch.
	if !strings.HasPrefix(lines[2], "├─ queue") ||
		!strings.HasPrefix(lines[3], "├─ inference") ||
		!strings.HasPrefix(lines[4], "└─ postprocess") {
		t.Fatalf("bad children:\n%s", buf.String())
	}
	// Offsets are relative to the trace's earliest span.
	if !strings.Contains(lines[1], "+0s") {
		t.Fatalf("root offset not zeroed: %q", lines[1])
	}

	// An orphan (evicted parent) is promoted to a root, not dropped.
	orphan := []Span{{Request: req, Name: "denoise_step", TID: 0, Start: 1, Dur: 0.01,
		Trace: trace, ID: SpanID(trace, "denoise_step", 3), Parent: 12345}}
	buf.Reset()
	if err := RenderSpanTree(&buf, orphan, trace); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "denoise_step") {
		t.Fatalf("orphan dropped:\n%s", buf.String())
	}

	// Unknown trace: an error, not empty output.
	if err := RenderSpanTree(&buf, spans, 0xDEAD); err == nil {
		t.Fatal("want error for unknown trace")
	}
}
