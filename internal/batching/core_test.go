package batching

import (
	"strings"
	"testing"

	"flashps/internal/perfmodel"
	"flashps/internal/tensor"
)

func calibrated(t *testing.T) *perfmodel.Estimator {
	t.Helper()
	est, err := perfmodel.Calibrate(perfmodel.SD21Paper, tensor.NewRNG(99), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestPlacementInvariantUnderIDRelabeling is the determinism contract
// behind the differential replay test: Algorithm 2 (and every baseline
// policy) must place a request by its mask ratio, step count, and the
// worker views alone — never by its request ID. Two cores with the same
// seed fed the same placement sequence, one with the original IDs and one
// with relabeled IDs, must make identical picks at every step.
func TestPlacementInvariantUnderIDRelabeling(t *testing.T) {
	est := calibrated(t)
	for _, pol := range []Policy{RoundRobin, LeastRequests, LeastTokens, MaskAware} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			a := NewCore(CoreConfig{Policy: pol, Estimator: est, MaxBatch: 4, Seed: 5})
			b := NewCore(CoreConfig{Policy: pol, Estimator: est, MaxBatch: 4, Seed: 5})
			rng := tensor.NewRNG(uint64(31 + pol))
			for trial := 0; trial < 300; trial++ {
				workers := 2 + int(rng.Uint64()%5)
				views := make([]WorkerView, workers)
				ids := make([]int, workers)
				for w := range views {
					ids[w] = w
					n := int(rng.Uint64() % 4)
					for k := 0; k < n; k++ {
						views[w].Ratios = append(views[w].Ratios, rng.Float64())
						views[w].RemSteps = append(views[w].RemSteps, 1+int(rng.Uint64()%50))
					}
				}
				item := Item{MaskRatio: rng.Float64(), Steps: 50}
				orig, relabel := item, item
				orig.ID = uint64(trial)
				relabel.ID = rng.Uint64() // arbitrary relabeling

				// Place mutates the tie-break rng identically on both
				// cores, so the sequences stay in lockstep.
				pa := a.Place(cloneViews(views), ids, orig)
				pb := b.Place(cloneViews(views), ids, relabel)
				if pa != pb {
					t.Fatalf("trial %d: placement depends on request ID: %d vs %d",
						trial, pa, pb)
				}
			}
		})
	}
}

func cloneViews(views []WorkerView) []WorkerView {
	out := make([]WorkerView, len(views))
	for i, v := range views {
		out[i] = WorkerView{
			Ratios:   append([]float64(nil), v.Ratios...),
			RemSteps: append([]int(nil), v.RemSteps...),
		}
	}
	return out
}

// TestAdmitBudgetDisciplines pins the admission semantics per discipline.
func TestAdmitBudgetDisciplines(t *testing.T) {
	cases := []struct {
		disc    Discipline
		running int
		want    int
	}{
		{Static, 0, 4}, {Static, 1, 0}, {Static, 3, 0},
		{StrawmanCB, 0, 4}, {StrawmanCB, 3, 1}, {StrawmanCB, 4, 0}, {StrawmanCB, 5, 0},
		{DisaggregatedCB, 0, 4}, {DisaggregatedCB, 2, 2}, {DisaggregatedCB, 4, 0},
	}
	for _, c := range cases {
		core := NewCore(CoreConfig{Discipline: c.disc, MaxBatch: 4})
		if got := core.AdmitBudget(0, c.running); got != c.want {
			t.Errorf("%s running=%d: budget %d, want %d", c.disc, c.running, got, c.want)
		}
	}
}

// TestAdmitLogsResultingBatchSizes: each admitted request is recorded with
// the batch size it produced, and admission is FIFO-truncated at budget.
func TestAdmitLogsResultingBatchSizes(t *testing.T) {
	core := NewCore(CoreConfig{Discipline: DisaggregatedCB, MaxBatch: 3})
	queued := []Item{{ID: 10}, {ID: 11}, {ID: 12}, {ID: 13}}
	if n := core.Admit(1, 1, queued); n != 2 {
		t.Fatalf("admitted %d, want 2 (budget 3-1)", n)
	}
	admits := core.Log().Filter(KindAdmit)
	if len(admits) != 2 || admits[0].Request != 10 || admits[0].Batch != 2 ||
		admits[1].Request != 11 || admits[1].Batch != 3 {
		t.Fatalf("admit log = %v", admits)
	}
}

// TestShedVictimPolicy pins the overload policy: largest ratio strictly
// above the newcomer's wins, ties break toward the larger ID, and with no
// strictly-larger candidate the newcomer is rejected.
func TestShedVictimPolicy(t *testing.T) {
	core := NewCore(CoreConfig{MaxBatch: 4})
	cands := []Item{
		{ID: 1, MaskRatio: 0.5},
		{ID: 2, MaskRatio: 0.9},
		{ID: 3, MaskRatio: 0.9},
		{ID: 4, MaskRatio: 0.7},
	}
	if v := core.ShedVictim(0, cands, Item{ID: 9, MaskRatio: 0.2}); v != 2 {
		t.Fatalf("victim index %d, want 2 (ratio 0.9, larger ID)", v)
	}
	if v := core.ShedVictim(0, cands, Item{ID: 9, MaskRatio: 0.95}); v != -1 {
		t.Fatalf("victim index %d, want -1 (newcomer largest)", v)
	}
	dec := core.Decisions()
	if len(dec) != 2 || dec[0].Kind != KindShed || dec[0].Request != 3 ||
		dec[1].Kind != KindReject || dec[1].Request != 9 {
		t.Fatalf("decision log = %v", dec)
	}
}

// TestDiffDecisions covers the replay comparator's divergence reporting.
func TestDiffDecisions(t *testing.T) {
	a := []Decision{{Kind: KindPlace, Request: 1, Worker: 0, Batch: 2}}
	if err := DiffDecisions(a, a); err != nil {
		t.Fatalf("identical sequences diverge: %v", err)
	}
	b := []Decision{{Kind: KindPlace, Request: 1, Worker: 1, Batch: 2}}
	if err := DiffDecisions(a, b); err == nil ||
		!strings.Contains(err.Error(), "decision 0 diverges") {
		t.Fatalf("worker divergence not reported: %v", err)
	}
	if err := DiffDecisions(a, a[:0]); err == nil ||
		!strings.Contains(err.Error(), "counts diverge") {
		t.Fatalf("length divergence not reported: %v", err)
	}
}

// TestParseRoundTrips covers flag parsing of disciplines and policies.
func TestParseRoundTrips(t *testing.T) {
	for _, d := range []Discipline{Static, StrawmanCB, DisaggregatedCB} {
		got, err := ParseDiscipline(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDiscipline(%q) = %v, %v", d.String(), got, err)
		}
	}
	for spec, want := range map[string]Discipline{
		"disagg": DisaggregatedCB, "strawman": StrawmanCB, "static": Static,
	} {
		if got, err := ParseDiscipline(spec); err != nil || got != want {
			t.Fatalf("ParseDiscipline(%q) = %v, %v", spec, got, err)
		}
	}
	if _, err := ParseDiscipline("bogus"); err == nil {
		t.Fatal("bogus discipline accepted")
	}
	for spec, want := range map[string]Policy{
		"round-robin": RoundRobin, "least-requests": LeastRequests,
		"least-tokens": LeastTokens, "mask-aware": MaskAware,
	} {
		if got, err := ParsePolicy(spec); err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", spec, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestRetryBackoffIsCappedExponential pins the crash-retry policy: the
// base doubles per attempt up to 8× and the budget bounds the attempts.
func TestRetryBackoffIsCappedExponential(t *testing.T) {
	core := NewCore(CoreConfig{MaxRetries: 6, RetryBackoff: 0.025})
	want := []float64{0.025, 0.05, 0.1, 0.2, 0.2, 0.2}
	for i, w := range want {
		got, ok := core.Retry(i + 1)
		if !ok || got != w {
			t.Fatalf("attempt %d: backoff %g ok=%v, want %g", i+1, got, ok, w)
		}
	}
	if _, ok := core.Retry(7); ok {
		t.Fatal("attempt 7 allowed past a budget of 6")
	}
	if _, ok := NewCore(CoreConfig{}).Retry(1); ok {
		t.Fatal("zero budget allowed a retry")
	}
}
