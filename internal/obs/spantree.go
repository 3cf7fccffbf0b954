package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// RenderSpanTree writes an indented textual tree of one causal trace —
// the rendering behind `flashps-trace -explain`. Spans are grouped by
// parent id, siblings ordered by start time then name, and offsets are
// relative to the trace's earliest span so virtual- and wall-clock traces
// read the same. Spans whose parent is missing (evicted from the ring)
// are promoted to roots rather than silently dropped.
func RenderSpanTree(w io.Writer, spans []Span, trace uint64) error {
	var mine []Span
	for _, s := range spans {
		if s.Trace == trace {
			mine = append(mine, s)
		}
	}
	if len(mine) == 0 {
		return fmt.Errorf("obs: no spans for trace %s", FormatTraceID(trace))
	}
	present := make(map[uint64]bool, len(mine))
	for _, s := range mine {
		present[s.ID] = true
	}
	children := make(map[uint64][]Span)
	var roots []Span
	t0 := mine[0].Start
	var req uint64
	for _, s := range mine {
		if s.Start < t0 {
			t0 = s.Start
		}
		if s.Request != 0 {
			req = s.Request
		}
		if s.Parent != 0 && present[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(ss []Span) {
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].Name < ss[j].Name
		})
	}
	order(roots)
	for _, cs := range children {
		order(cs)
	}

	if _, err := fmt.Fprintf(w, "trace %s · request %d · %d spans\n",
		FormatTraceID(trace), req, len(mine)); err != nil {
		return err
	}
	var render func(s Span, prefix, connector, childPrefix string) error
	render = func(s Span, prefix, connector, childPrefix string) error {
		line := fmt.Sprintf("%s%s%-14s %9s +%-9s%s",
			prefix, connector, s.Name,
			fmtSeconds(s.Dur), fmtSeconds(s.Start-t0), spanArgs(s))
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
		cs := children[s.ID]
		for i, c := range cs {
			if i == len(cs)-1 {
				if err := render(c, childPrefix, "└─ ", childPrefix+"   "); err != nil {
					return err
				}
			} else if err := render(c, childPrefix, "├─ ", childPrefix+"│  "); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := render(r, "", "", ""); err != nil {
			return err
		}
	}
	return nil
}

// spanArgs renders a span's worker and args compactly, keys sorted.
func spanArgs(s Span) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  worker %d", s.TID)
	for _, kv := range s.Args.sorted() {
		fmt.Fprintf(&b, " %s=%s", kv.Key, strconv.FormatFloat(kv.Val, 'g', 4, 64))
	}
	return b.String()
}

// fmtSeconds renders a duration in seconds with an adaptive unit.
func fmtSeconds(s float64) string {
	switch {
	case s < 0:
		return "-" + fmtSeconds(-s)
	case s == 0:
		return "0s"
	case s < 1e-3:
		return strconv.FormatFloat(s*1e6, 'f', 1, 64) + "µs"
	case s < 1:
		return strconv.FormatFloat(s*1e3, 'f', 2, 64) + "ms"
	case s < 120:
		return strconv.FormatFloat(s, 'f', 2, 64) + "s"
	default:
		return strconv.FormatFloat(s/60, 'f', 1, 64) + "min"
	}
}
