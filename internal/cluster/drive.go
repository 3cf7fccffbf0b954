package cluster

import (
	"fmt"

	"flashps/internal/batching"
	"flashps/internal/fleet"
	"flashps/internal/perfmodel"
	"flashps/internal/simclock"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// run is one virtual-time run of the batching.Runner: the clock, the
// cost-model executor, the shared core and, in a fleet run, the fleet
// controller in front of it.
type run struct {
	cfg    Config
	clock  simclock.Clock
	exec   *Executor         // the cost model
	drive  batching.Executor // what the Runner drives: exec, or its wrapper
	core   batching.CoreConfig
	log    *batching.DecisionLog
	ctrl   *fleet.Controller
	runner *batching.Runner
	seen   collector
}

// collector is a run's Observer: the telemetry bridge, plus a record of
// every request's terminal state for the result.
type collector struct {
	*batching.Telemetry
	done []batching.RequestStat
}

func (c *collector) RequestDone(stat batching.RequestStat) {
	c.done = append(c.done, stat)
	c.Telemetry.RequestDone(stat)
}

// newRun is the one set-up every virtual-time driver shares, up to but not
// including the Runner, which start builds. fc, when non-nil, configures
// the fleet controller in front of the workers; without it the controller
// admits everything and leaves placement to the core's policy, as on a
// plain server. wrap, when non-nil, substitutes the executor the Runner
// drives for one built around the cost model (the differential-replay
// driver steps real sessions beside it).
func newRun(cfg Config, fc *fleet.Config, wrap func(*Executor) (batching.Executor, error)) (*run, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rn := &run{cfg: cfg}
	fleetCfg := fleet.Config{Replicas: cfg.Workers}
	if fc != nil {
		if fc.Router == fleet.RouterCore {
			return nil, fmt.Errorf("cluster: fleet driver needs an explicit router (least-loaded or affinity)")
		}
		fleetCfg = NormalizeFleet(cfg, *fc)
	}
	var err error
	if rn.ctrl, err = fleet.NewController(fleetCfg); err != nil {
		return nil, err
	}
	pool := rn.ctrl.Pool()
	if cfg.Obs != nil {
		cfg.Obs.BindClock(&rn.clock)
	}
	rn.exec = &Executor{
		cfg: &rn.cfg, clock: &rn.clock, disc: cfg.Batching.Discipline(),
		ov: perfmodel.PaperOverheads(), staticEnd: make([]float64, pool),
	}
	if cfg.System == SystemFlashPS {
		if rn.exec.tiers, err = newTierSet(cfg.Profile, pool, cfg.ColdCacheTemplates); err != nil {
			return nil, err
		}
	}
	est := cfg.Estimator
	if est == nil {
		est, err = perfmodel.Calibrate(cfg.Profile, tensor.NewRNG(cfg.Seed^0xE57), 0.02)
		if err != nil {
			return nil, err
		}
	}
	if cfg.Costs != nil {
		if err := cfg.Costs.Validate(); err != nil {
			return nil, err
		}
		rn.exec.ov = cfg.Costs.Overheads
		if cfg.Obs != nil {
			cfg.Obs.SetCalibration(cfg.Costs.Info())
		}
	}
	rn.seen.Telemetry = batching.NewTelemetry(cfg.Obs)
	rn.log = cfg.Decisions
	if rn.log == nil {
		rn.log = new(batching.DecisionLog)
	}
	rn.log.SetSink(rn.seen.DecisionSink())
	rn.drive = rn.exec
	if wrap != nil {
		if rn.drive, err = wrap(rn.exec); err != nil {
			return nil, err
		}
	}
	rn.core = batching.CoreConfig{
		Policy:     cfg.Policy,
		Discipline: cfg.Batching.Discipline(),
		Estimator:  est,
		MaxBatch:   cfg.maxBatch(),
		Seed:       cfg.Seed,
		Log:        rn.log,
	}
	return rn, nil
}

// start builds the Runner on everything newRun set up.
func (rn *run) start() {
	rn.runner = batching.NewRunner(batching.RunnerConfig{
		Workers:   rn.ctrl.Pool(),
		CostSteps: rn.cfg.Profile.Steps,
		Core:      batching.NewCore(rn.core),
		Clock:     &rn.clock,
		Exec:      rn.drive,
		Obs:       &rn.seen,
		Fleet:     rn.ctrl.Front(),
	})
}

// arrive schedules every request's submission at its arrival time and the
// autoscaler's tick chain, if it is armed.
func (rn *run) arrive(reqs []workload.Request) {
	lastArrival := 0.0
	for _, r := range reqs {
		r := r
		if r.Arrival > lastArrival {
			lastArrival = r.Arrival
		}
		rn.clock.At(r.Arrival, func() { rn.runner.Submit(r, 0) })
	}
	if len(reqs) > 0 {
		fleet.Autoscale(rn.ctrl, rn.runner, &rn.clock, lastArrival)
	}
}

// drain runs the clock dry and collects the result. n is the request count
// the runaway guard scales with: steps×requests×constant events, plus
// headroom for the autoscaler's tick chain.
func (rn *run) drain(n int) (*FleetResult, error) {
	rn.clock.Drain(n*(rn.cfg.Profile.Steps+16)*8 + 65536)
	if p := rn.runner.Pending(); p > 0 {
		return nil, fmt.Errorf("cluster: simulation stalled with %d requests pending", p)
	}
	res := &FleetResult{Result: Result{
		Makespan: rn.clock.Now(), WorkerBusy: rn.runner.WorkerBusy(),
	}}
	for _, stat := range rn.seen.done {
		if stat.Outcome == batching.Completed {
			res.Stats = append(res.Stats, stat)
		}
	}
	res.BatchSizeSum, res.BatchSteps = rn.runner.BatchOccupancy()
	res.Events, res.States = rn.ctrl.Events(), rn.ctrl.States()
	for _, e := range res.Events {
		if e.Kind == fleet.EventReject {
			res.Rejected++
		}
	}
	publishTierStats(rn.cfg.Obs, rn.exec.tiers)
	return res, nil
}

// Drive serves reqs through one batching.Runner on a virtual clock and
// returns the outcome with the decision sequence the shared core made. It
// is what Run and RunFleet (cost model only) and the differential-replay
// drivers (wrap steps real sessions beside the cost model) are fronts of.
func Drive(cfg Config, fc *fleet.Config, wrap func(*Executor) (batching.Executor, error),
	reqs []workload.Request) (*FleetResult, []batching.Decision, error) {
	rn, err := newRun(cfg, fc, wrap)
	if err != nil {
		return nil, nil, err
	}
	rn.start()
	rn.arrive(reqs)
	res, err := rn.drain(len(reqs))
	if err != nil {
		return nil, nil, err
	}
	return res, rn.log.Snapshot(), nil
}

// Run simulates serving the given trace and returns per-request stats.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	if len(reqs) == 0 {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
	res, _, err := Drive(cfg, nil, nil, reqs)
	if err != nil {
		return nil, err
	}
	return &res.Result, nil
}

// RunFleet simulates serving the trace through the full fleet pipeline:
// admission → router → per-replica queues on the shared batching core,
// with the SLO-driven autoscaler ticking on the virtual clock. It is the
// fleet counterpart of Run and the virtual-time half of
// TestDifferentialReplayFleet.
func RunFleet(cfg Config, fc fleet.Config, reqs []workload.Request) (*FleetResult, error) {
	res, _, err := Drive(cfg, &fc, nil, reqs)
	return res, err
}
