package main

import (
	"encoding/json"
	"fmt"
	"os"

	"flashps/internal/benchfmt"
)

// comparison is one row of -compare: one end-to-end metric on one workload,
// before and after.
type comparison struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Before   []float64 `json:"before"`
	After    []float64 `json:"after"`
	MedianA  float64   `json:"median_before"`
	MedianB  float64   `json:"median_after"`
	// Spread is the wider of the two sides' inter-quartile spreads, as a
	// share of that side's median.
	Spread float64 `json:"iqr_spread"`
	// Worse is how much worse the after side's median is, as a share of the
	// before side's; negative when it is better.
	Worse   float64 `json:"worse_by"`
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// noiseFile is what -compare -o writes; benchmark/NOISE.json is one, made
// from two sets of runs of the same commit.
type noiseFile struct {
	// Claim is always null: a comparison reports, it claims no gain.
	Claim  *string       `json:"claim"`
	MetaA  benchfmt.Meta `json:"meta_before"`
	MetaB  benchfmt.Meta `json:"meta_after"`
	Sizing sizing        `json:"sizing"`
	Failed int64         `json:"failed_requests"`
	// HostA and HostB are each run's host factor over its measured window,
	// per workload: how fast the host was while the rows were measured.
	HostA map[string][]float64 `json:"host_factor_before"`
	HostB map[string][]float64 `json:"host_factor_after"`
	Rows  []comparison         `json:"rows"`
}

// hostFactors collects the host factor of every run of a report that has
// one.
func hostFactors(rep report) map[string][]float64 {
	out := make(map[string][]float64)
	for _, r := range rep.Runs {
		if f, ok := r.Raw["host_factor"]; ok {
			out[r.Workload] = append(out[r.Workload], f)
		}
	}
	return out
}

func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// values collects one end-to-end metric of one workload across a report's
// runs.
func values(rep report, workload, name string) (xs []float64) {
	for _, r := range rep.Runs {
		if m, ok := r.EndToEnd[name]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareRows judges every workload x end-to-end metric: regressed when the
// after median is worse than the before median by more than the bound,
// unresolved when either side's own spread is wider than the bound.
func compareRows(a, b report) (rows []comparison, failed int64) {
	for _, r := range append(a.Runs[:len(a.Runs):len(a.Runs)], b.Runs...) {
		failed += r.Failed
	}
	for _, sp := range workloads {
		for _, d := range endToEndDefs {
			xa, xb := values(a, sp.Name, d.Name), values(b, sp.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			row := comparison{Workload: sp.Name, Metric: d.Name, Unit: d.Unit, Before: xa, After: xb,
				MedianA: median(xa), MedianB: median(xb), Bound: d.Bound,
				Spread: max(iqrSpread(xa), iqrSpread(xb))}
			row.Worse = (row.MedianB - row.MedianA) / row.MedianA
			if d.Better == "higher" {
				row.Worse = -row.Worse
			}
			switch {
			case row.Spread > row.Bound:
				row.Verdict = "unresolved"
			case row.Worse > row.Bound:
				row.Verdict = "REGRESSED"
			default:
				row.Verdict = "ok"
			}
			rows = append(rows, row)
		}
	}
	return rows, failed
}

func compareReports(pathA, pathB, out string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	rows, failed := compareRows(a, b)
	fmt.Printf("%-15s %-15s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "before", "after", "worse", "spread", "bound", "verdict")
	regressed := false
	for _, r := range rows {
		fmt.Printf("%-15s %-15s %12.4f %12.4f %+7.1f%% %7.1f%% %6.0f%%  %s (n=%d/%d %s)\n",
			r.Workload, r.Metric, r.MedianA, r.MedianB, 100*r.Worse, 100*r.Spread, 100*r.Bound,
			r.Verdict, len(r.Before), len(r.After), r.Unit)
		regressed = regressed || r.Verdict == "REGRESSED"
	}
	fmt.Printf("failed requests across both reports: %d\n", failed)
	if out != "" {
		buf, err := json.MarshalIndent(noiseFile{MetaA: a.Meta, MetaB: b.Meta, Sizing: b.Sizing,
			Failed: failed, HostA: hostFactors(a), HostB: hostFactors(b), Rows: rows}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	if regressed || failed > 0 {
		return fmt.Errorf("regression or failed requests, see rows above")
	}
	return nil
}
