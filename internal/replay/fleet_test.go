package replay

import (
	"testing"

	"flashps/internal/batching"
	"flashps/internal/cluster"
	"flashps/internal/fleet"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/workload"
)

// fleetTrace is a hotter trace than replayTrace: enough offered load to
// swamp the initial replicas so the autoscaler's breach path fires inside
// the differential window.
func fleetTrace(t *testing.T, n int) []workload.Request {
	t.Helper()
	reqs, err := workload.Generate(workload.TraceConfig{
		N:         n,
		RPS:       300,
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

// TestDifferentialReplayFleet extends the differential contract to the
// fleet pipeline: the same trace driven through the virtual-time fleet
// simulator and through the real-engine fleet driver must produce the
// identical core decision sequence, the identical fleet event sequence
// (routing choices, admission rejects, scale up/down actions), identical
// final replica states, and byte-identical Prometheus expositions —
// for ≥ 2 replicas under both the least-loaded and the
// template-affinity routers, with the SLO-driven autoscaler armed.
func TestDifferentialReplayFleet(t *testing.T) {
	reqs := fleetTrace(t, 300)
	for _, router := range []fleet.RouterKind{fleet.RouterLeastLoaded, fleet.RouterAffinity} {
		router := router
		t.Run(router.String(), func(t *testing.T) {
			cfg := Config{
				Model:    replayModel,
				Profile:  perfmodel.SD21Paper,
				Workers:  2,
				MaxBatch: 4,
				Policy:   batching.MaskAware,
				Batching: cluster.BatchingDisaggregated,
				Seed:     11,
			}
			fc := fleet.Config{
				Replicas:    2,
				MaxReplicas: 3,
				Router:      router,
				Autoscale: fleet.AutoscaleConfig{
					Enabled: true, Interval: 2,
					AttainBelow: 0.9, UpTicks: 2, IdleTicks: 2, Cooldown: 1, Min: 1,
				},
			}
			simPlane := obs.NewPlane(obs.PlaneConfig{})
			cfg.Obs = simPlane
			simRes, simDec, err := SimFleet(cfg, fc, reqs)
			if err != nil {
				t.Fatalf("sim fleet driver: %v", err)
			}
			realPlane := obs.NewPlane(obs.PlaneConfig{})
			cfg.Obs = realPlane
			realRes, realDec, err := RealFleet(cfg, fc, reqs)
			if err != nil {
				t.Fatalf("real fleet driver: %v", err)
			}
			if err := Diff(simDec, realDec); err != nil {
				t.Fatalf("decision sequences diverge: %v", err)
			}
			if err := fleet.DiffEvents(simRes.Events, realRes.Events); err != nil {
				t.Fatalf("fleet event sequences diverge: %v", err)
			}
			if len(simRes.States) != len(realRes.States) {
				t.Fatalf("replica pool sizes diverge: %d vs %d", len(simRes.States), len(realRes.States))
			}
			for i := range simRes.States {
				if simRes.States[i] != realRes.States[i] {
					t.Fatalf("replica %d final state diverges: %v vs %v",
						i, simRes.States[i], realRes.States[i])
				}
			}
			assertPlanesIdentical(t, simPlane, realPlane, len(reqs))

			// The run must have actually exercised the fleet machinery.
			var routes, ups int
			for _, e := range simRes.Events {
				switch e.Kind {
				case fleet.EventRoute:
					routes++
				case fleet.EventScaleUp:
					ups++
				}
			}
			if routes != len(reqs) {
				t.Fatalf("%d route events for %d requests", routes, len(reqs))
			}
			// Per-request fleet events carry the request's causal trace id.
			for _, e := range simRes.Events {
				switch e.Kind {
				case fleet.EventRoute, fleet.EventReject:
					if e.Trace != obs.TraceID(e.Request) {
						t.Fatalf("event %v trace id mismatch (want %012x)", e, obs.TraceID(e.Request))
					}
				default:
					if e.Trace != 0 {
						t.Fatalf("scale event %v carries a trace id", e)
					}
				}
			}
			if ups == 0 {
				t.Fatal("overload trace produced no scale-up: the differential is not pinning scale events")
			}
			if got := realRes.Decoded; got != len(reqs) {
				t.Fatalf("real driver decoded %d images, want %d", got, len(reqs))
			}
			if len(simRes.Stats) != len(realRes.Stats) {
				t.Fatalf("stat count: sim %d, real %d", len(simRes.Stats), len(realRes.Stats))
			}
			for i := range simRes.Stats {
				s, r := simRes.Stats[i], realRes.Stats[i]
				if s.ID != r.ID || s.Worker != r.Worker ||
					!approxEq(s.Admit, r.Admit) || !approxEq(s.Complete, r.Complete) {
					t.Fatalf("stat %d: sim %+v, real %+v", i, s, r)
				}
			}
			if !approxEq(simRes.Makespan, realRes.Makespan) {
				t.Fatalf("makespan: sim %g, real %g", simRes.Makespan, realRes.Makespan)
			}
		})
	}
}

// TestDifferentialReplayFleetColdCache runs the affinity router with the
// per-replica cold-cache tier armed: disk stagings perturb ready times
// identically in both drivers, and the affinity router's hit stream must
// stay byte-identical.
func TestDifferentialReplayFleetColdCache(t *testing.T) {
	reqs := replayTrace(t, 100)
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
	fc := fleet.Config{Router: fleet.RouterAffinity}
	simPlane := obs.NewPlane(obs.PlaneConfig{})
	cfg.Obs = simPlane
	simRes, simDec, err := SimFleet(cfg, fc, reqs)
	if err != nil {
		t.Fatalf("sim fleet driver: %v", err)
	}
	realPlane := obs.NewPlane(obs.PlaneConfig{})
	cfg.Obs = realPlane
	realRes, realDec, err := RealFleet(cfg, fc, reqs)
	if err != nil {
		t.Fatalf("real fleet driver: %v", err)
	}
	if err := Diff(simDec, realDec); err != nil {
		t.Fatalf("decision sequences diverge: %v", err)
	}
	if err := fleet.DiffEvents(simRes.Events, realRes.Events); err != nil {
		t.Fatalf("fleet event sequences diverge: %v", err)
	}
	assertPlanesIdentical(t, simPlane, realPlane, len(reqs))
	var hits int
	for _, e := range simRes.Events {
		if e.Kind == fleet.EventRoute && e.Affinity {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("affinity router recorded no template hits over a skewed trace")
	}
}
