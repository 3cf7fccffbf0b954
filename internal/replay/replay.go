// Package replay is the differential-replay harness proving that the
// simulator and the real serving engine share one scheduling/batching
// brain: it runs a recorded workload trace through the batching core twice
// — once under the discrete-event cost-model harness (internal/cluster)
// and once under a real-engine driver that steps actual
// diffusion.EditSession replicas on the same virtual clock — and exposes
// both decision sequences for comparison. Because both drivers execute the
// identical batching.Core/Runner code with identical modeled durations,
// the placement and admission decision sequences must match byte for byte;
// any divergence means policy code has forked between sim and production.
//
// The real driver is faults-stubbed: it carries the serving plane's
// fault-injection seam (step-stage delays perturb virtual time) but the
// differential test runs it with no injector armed.
package replay

import (
	"fmt"

	"flashps/internal/batching"
	"flashps/internal/cluster"
	"flashps/internal/diffusion"
	"flashps/internal/faults"
	"flashps/internal/fleet"
	"flashps/internal/img"
	"flashps/internal/mask"
	mdl "flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// Config parameterizes one sim-vs-real replay pair.
type Config struct {
	// Model is the numeric engine the real driver steps.
	Model mdl.Config
	// Profile is the cost-model profile both drivers use; its Steps field
	// is forced to Model.Steps so the modeled step counts match the real
	// sessions'.
	Profile perfmodel.ModelProfile
	// Workers is the number of replicas.
	Workers int
	// MaxBatch overrides the profile's engine batch limit when > 0.
	MaxBatch int
	// Policy is the load-balancing policy.
	Policy batching.Policy
	// Batching is the batching discipline (simulator spelling).
	Batching cluster.Batching
	// Seed drives engine weights, calibration, and policy tie-breaking.
	Seed uint64
	// ColdCacheTemplates, when > 0, arms a per-worker cold-cache tier in
	// both drivers (§4.2): templates not resident in host memory stage
	// from disk in virtual time before admission.
	ColdCacheTemplates int
	// StepPolicy names an adaptive step-caching policy both drivers run:
	// the real driver's sessions actually reuse block residuals, while
	// virtual time in both drivers advances by the shared decision-visible
	// planned pricing (cluster.PolicyComputeScale), keeping the
	// differential byte-identity. "" or "off" disables.
	StepPolicy string
	// Faults optionally injects step-stage delays into the real driver's
	// virtual time; nil (the differential test) injects nothing.
	Faults *faults.Injector
	// Obs, when non-nil, receives the driver's full telemetry on the
	// virtual clock. Give Sim and Real each their own plane and compare
	// the expositions: identical decision streams imply byte-identical
	// telemetry.
	Obs *obs.Plane
}

// profile returns the cost profile with its step count aligned to the real
// engine's.
func (c Config) profile() perfmodel.ModelProfile {
	p := c.Profile
	p.Steps = c.Model.Steps
	return p
}

// clusterConfig is the simulator-config rendering of a replay config; the
// sim and real drivers both run on it, so the two cores, cost models and
// fleet defaults (cluster.NormalizeFleet) are configured identically.
func (c Config) clusterConfig() cluster.Config {
	return cluster.Config{
		System:             cluster.SystemFlashPS,
		Batching:           c.Batching,
		Policy:             c.Policy,
		Workers:            c.Workers,
		Profile:            c.profile(),
		MaxBatch:           c.MaxBatch,
		ColdCacheTemplates: c.ColdCacheTemplates,
		StepPolicy:         c.StepPolicy,
		Seed:               c.Seed,
		Obs:                c.Obs,
	}
}

// Sim replays the trace through the discrete-event cost-model harness and
// returns its result plus the decision sequence the shared core made.
func Sim(cfg Config, reqs []workload.Request) (*cluster.Result, []batching.Decision, error) {
	res, dec, err := cluster.Drive(cfg.clusterConfig(), nil, nil, reqs)
	if err != nil {
		return nil, nil, err
	}
	return &res.Result, dec, nil
}

// RealResult is the real driver's run: the shared driver's result — stats
// in the virtual clock's seconds, comparable one-to-one with the
// simulator's, and under a fleet the rejects, events and replica states —
// plus what the sessions did.
type RealResult struct {
	cluster.FleetResult
	// StepsComputed counts real denoising steps executed across sessions.
	StepsComputed int
	// Decoded counts finished sessions whose latents were decoded into
	// images (every request, on success).
	Decoded int
}

// Real replays the trace through the real-engine driver: the identical
// batching Core/Runner code placed on a virtual clock, with an Executor
// that steps real diffusion.EditSession replicas beside the cost model, so
// virtual time advances exactly as in the simulator.
func Real(cfg Config, reqs []workload.Request) (*RealResult, []batching.Decision, error) {
	if len(reqs) == 0 {
		if err := cfg.validate(); err != nil {
			return nil, nil, err
		}
		return &RealResult{}, nil, nil
	}
	return realDrive(cfg, nil, reqs)
}

func (c Config) validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("replay: invalid worker count %d", c.Workers)
	}
	return c.Model.Validate()
}

// realDrive runs the real-engine driver, behind a fleet controller when fc is
// non-nil: cluster.Drive with the cost-model executor wrapped in one that
// steps real sessions.
func realDrive(cfg Config, fc *fleet.Config, reqs []workload.Request) (*RealResult, []batching.Decision, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	exec := &realExecutor{cfg: &cfg, sessions: make(map[int]*diffusion.EditSession)}
	res, dec, err := cluster.Drive(cfg.clusterConfig(), fc,
		func(model *cluster.Executor) (batching.Executor, error) {
			model.Faults = cfg.Faults
			exec.Executor = model
			for i := 0; i < model.Replicas(); i++ {
				eng, err := diffusion.NewEngine(cfg.Model, cfg.Seed)
				if err != nil {
					return nil, err
				}
				exec.engines = append(exec.engines, eng)
			}
			return exec, exec.prepareTemplates(reqs)
		}, reqs)
	if exec.err != nil {
		return nil, nil, exec.err
	}
	if err != nil {
		return nil, nil, err
	}
	return &RealResult{FleetResult: *res, StepsComputed: exec.steps, Decoded: exec.decoded}, dec, nil
}

// Diff compares the two decision sequences, returning nil when identical.
func Diff(sim, real []batching.Decision) error {
	return batching.DiffDecisions(sim, real)
}

// realExecutor is the real-engine batching.Executor: it embeds the
// simulator's cost-model executor, which keeps answering the Runner in
// virtual time, and steps actual edit sessions for the work each turn
// describes.
type realExecutor struct {
	*cluster.Executor
	cfg       *Config
	engines   []*diffusion.Engine
	templates map[uint64]*diffusion.TemplateCache
	sessions  map[int]*diffusion.EditSession // by request ID

	steps   int
	decoded int
	err     error
}

// prepareTemplates runs the cache-population pass once per distinct
// template in the trace. All replicas share weights (same seed), so one
// prepared cache is valid on every engine — exactly the live plane's
// template store contract.
func (e *realExecutor) prepareTemplates(reqs []workload.Request) error {
	e.templates = make(map[uint64]*diffusion.TemplateCache)
	eng := e.engines[0]
	cfg := e.cfg.Model
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	for _, r := range reqs {
		if _, ok := e.templates[r.Template]; ok {
			continue
		}
		im := img.SynthTemplate(r.Template, h, w)
		tc, _, err := eng.PrepareTemplate(r.Template, im, fmt.Sprintf("template %d", r.Template), false)
		if err != nil {
			return err
		}
		e.templates[r.Template] = tc
	}
	return nil
}

// session returns (opening on first use) the request's edit session on the
// given worker's engine.
func (e *realExecutor) session(worker int, req workload.Request) (*diffusion.EditSession, error) {
	if s, ok := e.sessions[req.ID]; ok {
		return s, nil
	}
	cfg := e.cfg.Model
	m := mask.WithRatio(tensor.NewRNG(uint64(req.ID)^0x3A5C), cfg.LatentH, cfg.LatentW, req.MaskRatio)
	s, err := e.engines[worker].BeginEdit(diffusion.EditRequest{
		Template: e.templates[req.Template],
		Mask:     m,
		Prompt:   fmt.Sprintf("edit %d", req.ID),
		Seed:     uint64(req.ID),
		Mode:     diffusion.EditCachedY,
		Policy:   e.cfg.StepPolicy,
	})
	if err != nil {
		return nil, err
	}
	e.sessions[req.ID] = s
	return s, nil
}

// TotalSteps: the real sessions compute every denoising step.
func (e *realExecutor) TotalSteps(workload.Request) int { return e.cfg.Model.Steps }

// RunTurn does the turn's work for real — decode every retired session's
// image, step the batch as one stacked engine step per aligned step — and
// lets the cost model say how long that took. Virtual time advances by the
// decision-visible pricing, never by the sessions' measured reuse, so the
// drivers stay byte-identical even though the real sessions' dynamic block
// reuse differs step to step.
func (e *realExecutor) RunTurn(t batching.Turn) []float64 {
	for _, v := range t.Retired {
		s := e.sessions[v.Req.ID]
		delete(e.sessions, v.Req.ID)
		switch {
		case s == nil:
		case !s.Done():
			e.fail(fmt.Errorf("replay: request %d retired with %d steps remaining",
				v.Req.ID, s.RemainingSteps()))
		default:
			if _, err := s.Result(); err != nil {
				e.fail(err)
			} else {
				e.decoded++
			}
		}
	}
	sessions := make([]*diffusion.EditSession, 0, len(t.Batch))
	for _, v := range t.Batch {
		s, err := e.session(t.Worker, v.Req)
		if err != nil {
			e.fail(err)
			continue
		}
		sessions = append(sessions, s)
	}
	for k := 0; k < t.Aligned; k++ {
		live := sessions[:0]
		for _, s := range sessions {
			if !s.Done() {
				live = append(live, s)
			}
		}
		if sessions = live; len(live) == 0 {
			break
		}
		e.steps += len(live)
		for _, err := range e.engines[t.Worker].StepBatch(live) {
			if err != nil {
				e.fail(err)
				e.steps--
			}
		}
	}
	return e.Executor.RunTurn(t)
}

// Prepare drops the session a request lost to a crash had on its old
// worker: the rescue re-runs it from the first step.
func (e *realExecutor) Prepare(worker int, req workload.Request, ready func(ok bool)) {
	delete(e.sessions, req.ID)
	e.Executor.Prepare(worker, req, ready)
}

func (e *realExecutor) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}
