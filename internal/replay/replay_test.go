package replay

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"flashps/internal/batching"
	"flashps/internal/cluster"
	"flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/workload"
)

// replayModel is a tiny but real diffusion config so the differential test
// steps actual denoising math without dominating the suite's runtime.
var replayModel = model.Config{
	Name:           "replay-test",
	LatentH:        6,
	LatentW:        6,
	Hidden:         32,
	NumBlocks:      3,
	FFNMult:        4,
	Steps:          5,
	LatentChannels: 4,
}

func replayTrace(t *testing.T, n int) []workload.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.TraceConfig{
		N:         n,
		RPS:       6,
		Dist:      workload.ProductionTrace,
		Templates: 8,
		ZipfS:     1.05,
		Seed:      7,
	})
	if err != nil {
		t.Fatalf("generate trace: %v", err)
	}
	return reqs
}

// TestDifferentialReplay is the tentpole acceptance test: a 200-request
// trace replayed through the discrete-event simulator and through the
// real-engine driver must produce the identical sequence of placement and
// admission decisions under every batching discipline, because both
// drivers run the same batching.Core/Runner code.
func TestDifferentialReplay(t *testing.T) {
	reqs := replayTrace(t, 200)
	for _, disc := range []cluster.Batching{
		cluster.BatchingStatic,
		cluster.BatchingStrawman,
		cluster.BatchingDisaggregated,
	} {
		disc := disc
		t.Run(disc.String(), func(t *testing.T) {
			cfg := Config{
				Model:    replayModel,
				Profile:  perfmodel.SD21Paper,
				Workers:  3,
				MaxBatch: 4,
				Policy:   batching.MaskAware,
				Batching: disc,
				Seed:     11,
			}
			simPlane := obs.NewPlane(obs.PlaneConfig{})
			cfg.Obs = simPlane
			simRes, simDec, err := Sim(cfg, reqs)
			if err != nil {
				t.Fatalf("sim driver: %v", err)
			}
			realPlane := obs.NewPlane(obs.PlaneConfig{})
			cfg.Obs = realPlane
			realRes, realDec, err := Real(cfg, reqs)
			if err != nil {
				t.Fatalf("real driver: %v", err)
			}
			assertPlanesIdentical(t, simPlane, realPlane, len(reqs))
			if err := Diff(simDec, realDec); err != nil {
				t.Fatalf("decision sequences diverge: %v", err)
			}
			if len(simDec) == 0 {
				t.Fatal("no decisions recorded")
			}
			if got := realRes.Decoded; got != len(reqs) {
				t.Fatalf("real driver decoded %d images, want %d", got, len(reqs))
			}
			if want := len(reqs) * replayModel.Steps; realRes.StepsComputed != want {
				t.Fatalf("real driver computed %d denoising steps, want %d",
					realRes.StepsComputed, want)
			}
			// Decisions matching is the contract; per-request timings must
			// then agree too, since both clocks advance by the same costs.
			if len(simRes.Stats) != len(realRes.Stats) {
				t.Fatalf("stat count: sim %d, real %d", len(simRes.Stats), len(realRes.Stats))
			}
			for i := range simRes.Stats {
				s, r := simRes.Stats[i], realRes.Stats[i]
				if s.ID != r.ID || !approxEq(s.Admit, r.Admit) || !approxEq(s.Complete, r.Complete) {
					t.Fatalf("stat %d: sim %+v, real %+v", i, s, r)
				}
			}
			if !approxEq(simRes.Makespan, realRes.Makespan) {
				t.Fatalf("makespan: sim %g, real %g", simRes.Makespan, realRes.Makespan)
			}
		})
	}
}

func approxEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(a)) }

// assertPlanesIdentical is the observability half of the differential
// contract: the same trace driven through the simulator and the real
// engine must fill the telemetry plane identically — byte-for-byte equal
// Prometheus expositions (virtual-time histogram snapshots, cache-tier
// counters, SLO attainment, goodput, alert states), byte-for-byte equal
// causal Chrome traces, and byte-for-byte equal flight-recorder
// snapshots.
func assertPlanesIdentical(t *testing.T, sim, real *obs.Plane, n int) {
	t.Helper()
	simText, realText := sim.Reg.String(), real.Reg.String()
	if simText != realText {
		t.Fatalf("expositions diverge:\n--- sim ---\n%s\n--- real ---\n%s",
			firstDiffContext(simText, realText), firstDiffContext(realText, simText))
	}
	var simTrace, realTrace bytes.Buffer
	if err := sim.Tracer.WriteChromeJSON(&simTrace); err != nil {
		t.Fatal(err)
	}
	if err := real.Tracer.WriteChromeJSON(&realTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simTrace.Bytes(), realTrace.Bytes()) {
		t.Fatalf("causal Chrome traces diverge:\n--- sim ---\n%s\n--- real ---\n%s",
			firstDiffContext(simTrace.String(), realTrace.String()),
			firstDiffContext(realTrace.String(), simTrace.String()))
	}
	if !strings.Contains(simTrace.String(), `"trace_id"`) {
		t.Fatal("trace export carries no causal ids")
	}
	simFlight, err := json.Marshal(sim.FlightSnapshot("diff"))
	if err != nil {
		t.Fatal(err)
	}
	realFlight, err := json.Marshal(real.FlightSnapshot("diff"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(simFlight, realFlight) {
		t.Fatalf("flight-recorder snapshots diverge:\n--- sim ---\n%s\n--- real ---\n%s",
			firstDiffContext(string(simFlight), string(realFlight)),
			firstDiffContext(string(realFlight), string(simFlight)))
	}
	// Sanity: the shared exposition actually carries the run's telemetry,
	// not two identically empty planes.
	for _, want := range []string{
		`flashps_requests_total{outcome="ok"}`,
		`flashps_request_stage_seconds_count{stage="request"}`,
		`flashps_sched_decisions_total{kind="place"}`,
		"flashps_slo_attainment",
		"flashps_goodput_rps",
	} {
		if !strings.Contains(simText, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, simText)
		}
	}
	if _, total := sim.SLO.Counts(); int(total) != n {
		t.Fatalf("SLO tracker observed %d requests, want %d", total, n)
	}
	if a, b := sim.SLO.Attainment(), real.SLO.Attainment(); a != b {
		t.Fatalf("SLO attainment diverges: sim %g, real %g", a, b)
	}
}

// firstDiffContext trims a long exposition to the neighborhood of its
// first divergence from other, keeping failures readable.
func firstDiffContext(s, other string) string {
	i := 0
	for i < len(s) && i < len(other) && s[i] == other[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(s) {
		hi = len(s)
	}
	return s[lo:hi]
}

// TestDifferentialReplayColdCache runs the differential pair with the
// per-worker cold-cache tier armed (§4.2): disk staging perturbs admission
// times identically in both drivers, and the per-tier cache counters must
// come out nonzero and byte-identical.
func TestDifferentialReplayColdCache(t *testing.T) {
	reqs := replayTrace(t, 120)
	cfg := Config{
		Model:              replayModel,
		Profile:            perfmodel.SD21Paper,
		Workers:            2,
		MaxBatch:           4,
		Policy:             batching.MaskAware,
		Batching:           cluster.BatchingDisaggregated,
		ColdCacheTemplates: 3,
		Seed:               11,
	}
	simPlane := obs.NewPlane(obs.PlaneConfig{})
	cfg.Obs = simPlane
	_, simDec, err := Sim(cfg, reqs)
	if err != nil {
		t.Fatalf("sim driver: %v", err)
	}
	realPlane := obs.NewPlane(obs.PlaneConfig{})
	cfg.Obs = realPlane
	_, realDec, err := Real(cfg, reqs)
	if err != nil {
		t.Fatalf("real driver: %v", err)
	}
	if err := Diff(simDec, realDec); err != nil {
		t.Fatalf("decision sequences diverge: %v", err)
	}
	assertPlanesIdentical(t, simPlane, realPlane, len(reqs))
	text := simPlane.Reg.String()
	for _, want := range []string{
		`flashps_cache_tier_ops_total{tier="host",op="hit"}`,
		`flashps_cache_tier_ops_total{tier="disk",op="load"}`,
		`flashps_cache_tier_bytes_total{tier="disk",op="load"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("cold-cache exposition missing %q", want)
		}
	}
}

// TestReplayEmptyTrace covers the trivial path.
func TestReplayEmptyTrace(t *testing.T) {
	res, dec, err := Real(Config{
		Model:   replayModel,
		Profile: perfmodel.SD21Paper,
		Workers: 1,
	}, nil)
	if err != nil {
		t.Fatalf("empty trace: %v", err)
	}
	if len(dec) != 0 || len(res.Stats) != 0 {
		t.Fatalf("empty trace produced decisions %d stats %d", len(dec), len(res.Stats))
	}
}

// TestReplayRejectsBadConfig exercises the validation paths.
func TestReplayRejectsBadConfig(t *testing.T) {
	reqs := replayTrace(t, 2)
	if _, _, err := Real(Config{Model: replayModel, Profile: perfmodel.SD21Paper}, reqs); err == nil {
		t.Fatal("want error for zero workers")
	}
	bad := replayModel
	bad.Hidden = 0
	if _, _, err := Real(Config{Model: bad, Profile: perfmodel.SD21Paper, Workers: 1}, reqs); err == nil {
		t.Fatal("want error for invalid model")
	}
}

// TestDifferentialReplayPolicy extends the byte-identity contract to the
// adaptive step-caching policies: the real driver's sessions genuinely
// reuse block residuals, yet both drivers advance virtual time by the
// shared decision-visible planned pricing, so decisions, telemetry, and
// per-request timings must still match exactly — and block reuse must not
// skip denoising steps (every session computes all of them).
func TestDifferentialReplayPolicy(t *testing.T) {
	reqs := replayTrace(t, 120)
	for _, policy := range []string{"block", "layer", "timestep", "combined"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			cfg := Config{
				Model:      replayModel,
				Profile:    perfmodel.SD21Paper,
				Workers:    2,
				MaxBatch:   4,
				Policy:     batching.MaskAware,
				Batching:   cluster.BatchingDisaggregated,
				StepPolicy: policy,
				Seed:       11,
			}
			simPlane := obs.NewPlane(obs.PlaneConfig{})
			cfg.Obs = simPlane
			simRes, simDec, err := Sim(cfg, reqs)
			if err != nil {
				t.Fatalf("sim driver: %v", err)
			}
			realPlane := obs.NewPlane(obs.PlaneConfig{})
			cfg.Obs = realPlane
			realRes, realDec, err := Real(cfg, reqs)
			if err != nil {
				t.Fatalf("real driver: %v", err)
			}
			if err := Diff(simDec, realDec); err != nil {
				t.Fatalf("decision sequences diverge: %v", err)
			}
			assertPlanesIdentical(t, simPlane, realPlane, len(reqs))
			if want := len(reqs) * replayModel.Steps; realRes.StepsComputed != want {
				t.Fatalf("real driver computed %d denoising steps, want %d (block reuse must not skip steps)",
					realRes.StepsComputed, want)
			}
			if !approxEq(simRes.Makespan, realRes.Makespan) {
				t.Fatalf("makespan: sim %g, real %g", simRes.Makespan, realRes.Makespan)
			}
			// The policy must make the run cheaper than the same run priced
			// at full compute, or the pricing is vacuous.
			base := cfg
			base.StepPolicy = ""
			base.Obs = nil
			baseRes, _, err := Sim(base, reqs)
			if err != nil {
				t.Fatalf("baseline sim: %v", err)
			}
			if simRes.Makespan >= baseRes.Makespan {
				t.Fatalf("policy %s makespan %g not below baseline %g",
					policy, simRes.Makespan, baseRes.Makespan)
			}
		})
	}
}
