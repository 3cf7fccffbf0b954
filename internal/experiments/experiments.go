// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) plus the motivating microbenchmarks (Fig 4) and the
// design-choice ablations called out in DESIGN.md. Each experiment returns
// one or more Tables whose rows mirror the series the paper plots;
// cmd/flashps-bench prints them, and the repository-root benchmarks wrap
// the same runners in testing.B.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Table is one experiment's tabular output.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	width := func(s string) int { return utf8.RuneCountInString(s) }
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = width(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && width(c) > widths[i] {
				widths[i] = width(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - width(c)
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad+2))
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// Runner produces an experiment's tables. opts carries experiment-specific
// knobs (output directory for image-writing experiments, scale factors).
type Runner func(opts Options) ([]*Table, error)

// Options tunes experiment execution.
type Options struct {
	// OutDir receives image artifacts (Fig 13). Empty disables writing.
	OutDir string
	// Quick shrinks workloads for smoke runs.
	Quick bool
	// Seed drives all randomness.
	Seed uint64
}

// registry maps experiment ids (table/figure names) to runners.
var registry = map[string]Runner{}

func register(name string, r Runner) {
	if _, dup := registry[name]; dup {
		panic("experiments: duplicate registration " + name)
	}
	registry[name] = r
}

// Names returns the registered experiment ids in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(name string, opts Options) ([]*Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return r(opts)
}

func f1(v float64) string   { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string   { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string   { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string   { return fmt.Sprintf("%.4f", v) }
func ms(sec float64) string { return fmt.Sprintf("%.1f", sec*1e3) }
func itoa(v int) string     { return fmt.Sprintf("%d", v) }
