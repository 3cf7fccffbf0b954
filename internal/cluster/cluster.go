// Package cluster is the discrete-event serving simulator that reproduces
// the paper's cluster-scale experiments: end-to-end latency under Poisson
// traffic (Fig 12), engine throughput vs batch size (Fig 14), batching
// strategy comparisons (Fig 16-Left, Fig 4-Middle), and load-balancing
// policy comparisons (Fig 16-Right, Fig 4-Right).
//
// The scheduling and batching state machine itself lives in
// internal/batching — the same Core/Runner code the live serving plane
// dispatches through — and this package is the discrete-event harness
// around it: it supplies the virtual clock (internal/simclock), a
// per-system inference engine cost model as the batching.Executor
// (internal/perfmodel + the bubble-free pipeline DP of internal/pipeline,
// Algorithm 1), and an optional cold-cache tier (internal/cache, §4.2).
package cluster

import (
	"fmt"
	"math"

	"flashps/internal/batching"
	"flashps/internal/cache"
	"flashps/internal/diffusion"
	"flashps/internal/faults"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/pipeline"
	"flashps/internal/simclock"
	"flashps/internal/workload"
)

// System identifies the serving system whose engine cost model a worker
// uses.
type System int

const (
	// SystemFlashPS is the paper's system: mask-aware inference with the
	// bubble-free pipeline.
	SystemFlashPS System = iota
	// SystemDiffusers is the full-regeneration baseline.
	SystemDiffusers
	// SystemTeaCache skips denoising steps (computes TeaCacheStepFraction
	// of them) at full token width.
	SystemTeaCache
	// SystemFISEdit computes only masked tokens with custom sparse kernels
	// but cannot batch requests with different mask ratios (max batch 1)
	// and only supports SD2.1.
	SystemFISEdit
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case SystemFlashPS:
		return "flashps"
	case SystemDiffusers:
		return "diffusers"
	case SystemTeaCache:
		return "teacache"
	case SystemFISEdit:
		return "fisedit"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Batching identifies a worker's batching discipline (§4.3). It is the
// simulator-config spelling of batching.Discipline, kept as its own type so
// the zero value stays BatchingStatic (the baselines' policy) in existing
// experiment configs.
type Batching int

const (
	// BatchingStatic keeps the running batch fixed until every request in
	// it completes (the baselines' policy).
	BatchingStatic Batching = iota
	// BatchingStrawman is step-level continuous batching whose CPU
	// pre/postprocessing interrupts the GPU stream (Fig 10-Top).
	BatchingStrawman
	// BatchingDisaggregated is FlashPS's continuous batching with CPU
	// stages offloaded to separate processes (Fig 10-Bottom).
	BatchingDisaggregated
)

// String implements fmt.Stringer.
func (b Batching) String() string {
	switch b {
	case BatchingStatic:
		return "static"
	case BatchingStrawman:
		return "strawman-cb"
	case BatchingDisaggregated:
		return "disaggregated-cb"
	default:
		return fmt.Sprintf("Batching(%d)", int(b))
	}
}

// Discipline maps the simulator spelling onto the shared core's enum.
func (b Batching) Discipline() batching.Discipline {
	switch b {
	case BatchingStrawman:
		return batching.StrawmanCB
	case BatchingDisaggregated:
		return batching.DisaggregatedCB
	default:
		return batching.Static
	}
}

// Config parameterizes one simulation run.
type Config struct {
	System   System
	Batching Batching
	// Policy is the request-routing policy; see internal/batching. The
	// zero value routes round-robin.
	Policy Policy
	// Workers is the number of worker replicas (one GPU each).
	Workers int
	// Profile is the paper-scale model/GPU profile.
	Profile perfmodel.ModelProfile
	// MaxBatch overrides the profile's engine batch limit when > 0.
	MaxBatch int
	// ColdCacheTemplates, when > 0, gives each FlashPS worker a host
	// cache tier holding that many templates, with LRU eviction and disk
	// staging for cold templates (§4.2). 0 means all caches are warm in
	// host memory.
	ColdCacheTemplates int
	// StepPolicy names an adaptive step-caching policy
	// (diffusion.PolicyPresets: "block", "layer", "timestep", "combined";
	// "" or "off" disables). The simulator prices it from the
	// decision-visible planned reuse schedule — each batch step's latency
	// scales by the policy's planned compute fraction at the items' step
	// indices — so a replayed real driver running the same policy stays
	// byte-identical. Composes with SystemFlashPS and SystemDiffusers only.
	StepPolicy string
	// Seed feeds the policies' tiebreaking randomness.
	Seed uint64
	// Estimator, when non-nil, overrides the core's Algorithm-2 scoring
	// estimator (default: a synthetic offline sweep seeded from Seed). The
	// digital twin passes perfmodel.ServingEstimator so the simulated
	// scheduler scores batches bit-for-bit like the live server's.
	Estimator *perfmodel.Estimator
	// Costs, when non-nil, replaces the analytic engine cost model and the
	// paper overhead constants with a telemetry-fitted coefficient set
	// (perfmodel.FitFromTelemetry): denoising steps cost
	// Costs.StepSeconds and the runner charges Costs.Overheads. This is
	// digital-twin mode — the simulator predicts the measured machine
	// instead of the paper's GPUs.
	Costs *perfmodel.Coefficients
	// Obs, when non-nil, receives the run's full telemetry — per-stage
	// histograms/quantiles, SLO attainment and goodput, per-worker queue
	// depth, batch occupancy, scheduling decisions, cache-tier counters,
	// and virtual-time spans — through the same plane the live serving
	// plane populates. The run binds the plane to its virtual clock, so
	// every timestamp is in simulated seconds.
	Obs *obs.Plane
	// Decisions, when non-nil, receives the run's placement and admission
	// decision sequence from the shared core (differential replay).
	Decisions *batching.DecisionLog
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Workers <= 0 {
		return fmt.Errorf("cluster: invalid worker count %d", c.Workers)
	}
	if c.Profile.Blocks <= 0 || c.Profile.Steps <= 0 {
		return fmt.Errorf("cluster: invalid model profile %q", c.Profile.Name)
	}
	if c.System == SystemFISEdit && c.Profile.Name != "sd21" {
		return fmt.Errorf("cluster: FISEdit only supports sd21 (got %q)", c.Profile.Name)
	}
	if c.StepPolicy != "" && c.StepPolicy != "off" {
		if _, err := diffusion.PolicyByName(c.StepPolicy); err != nil {
			return fmt.Errorf("cluster: step policy: %v", err)
		}
		if c.System == SystemTeaCache || c.System == SystemFISEdit {
			return fmt.Errorf("cluster: step policy %q does not compose with system %v",
				c.StepPolicy, c.System)
		}
	}
	return nil
}

func (c Config) maxBatch() int {
	b := c.MaxBatch
	if b <= 0 {
		b = c.Profile.MaxBatch
	}
	if c.System == SystemFISEdit {
		// FISEdit cannot batch requests with different mask ratios; in
		// practice it serves one request at a time (§6.2, OOM above 2).
		b = 1
	}
	if b < 1 {
		b = 1
	}
	return b
}

// RequestStat is the per-request outcome of a run (shared with every other
// driver of the batching core).
type RequestStat = batching.RequestStat

// Result aggregates a simulation run.
type Result struct {
	Stats    []RequestStat
	Makespan float64
	// WorkerBusy is each worker's total busy time (GPU-occupied seconds).
	WorkerBusy []float64
	// BatchSizeSum / BatchSteps track the running-batch occupancy across
	// all executed denoising steps (static batches count each aligned
	// step), giving MeanBatchSize.
	BatchSizeSum int
	BatchSteps   int
}

// MeanBatchSize returns the average number of requests per executed
// denoising step — the batching benefit continuous batching unlocks (§4.3).
func (r *Result) MeanBatchSize() float64 {
	if r.BatchSteps == 0 {
		return 0
	}
	return float64(r.BatchSizeSum) / float64(r.BatchSteps)
}

// BusyFraction returns mean worker busy time over the makespan.
func (r *Result) BusyFraction() float64 {
	if r.Makespan <= 0 || len(r.WorkerBusy) == 0 {
		return 0
	}
	var sum float64
	for _, b := range r.WorkerBusy {
		sum += b
	}
	return sum / (r.Makespan * float64(len(r.WorkerBusy)))
}

// Latencies returns the distribution of end-to-end latencies.
func (r *Result) Latencies() *obs.Dist {
	var rec obs.Dist
	for _, s := range r.Stats {
		rec.Add(s.Latency())
	}
	return &rec
}

// QueueTimes returns the distribution of queueing times.
func (r *Result) QueueTimes() *obs.Dist {
	var rec obs.Dist
	for _, s := range r.Stats {
		rec.Add(s.QueueTime())
	}
	return &rec
}

// InferenceTimes returns the distribution of inference times.
func (r *Result) InferenceTimes() *obs.Dist {
	var rec obs.Dist
	for _, s := range r.Stats {
		rec.Add(s.InferenceTime())
	}
	return &rec
}

// Interruptions returns the distribution of per-request interruption counts.
func (r *Result) Interruptions() *obs.Dist {
	var rec obs.Dist
	for _, s := range r.Stats {
		rec.Add(float64(s.Interruptions))
	}
	return &rec
}

// Throughput returns completed requests per second over the makespan.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.Stats)) / r.Makespan
}

// Executor is the cost-model batching.Executor: every stage takes the time
// the per-system engine models and the CPU-stage overheads predict, it
// answers the Runner through events on the virtual clock, and nothing real
// executes. The differential-replay driver embeds it and steps real
// sessions beside it (internal/replay).
type Executor struct {
	cfg   *Config
	clock *simclock.Clock
	disc  batching.Discipline
	ov    perfmodel.Overheads
	tiers []cache.StagingTier // per worker; empty when all caches are warm
	// staticEnd is, per worker, when the static batch in flight delivers:
	// its start plus preprocessing, steps and postprocessing as one sum.
	staticEnd []float64

	// Faults optionally perturbs the modelled run the way it perturbs the
	// serving plane: faults.StepStage delays stretch a turn's steps and
	// faults.WorkerCrash kills the replica under its batch. Nil injects
	// nothing.
	Faults *faults.Injector
}

// restartDelay is how long a crashed modelled replica stays down (the
// serving plane's default).
const restartDelay = 0.05

// Replicas returns the size of the worker pool the executor models.
func (e *Executor) Replicas() int { return len(e.staticEnd) }

// TotalSteps returns how many denoising steps a request computes under
// the configured system (TeaCache skips steps).
func (e *Executor) TotalSteps(workload.Request) int {
	steps := e.cfg.Profile.Steps
	if e.cfg.System == SystemTeaCache {
		steps = int(math.Ceil(float64(steps) * perfmodel.TeaCacheStepFraction))
	}
	if steps < 1 {
		steps = 1
	}
	return steps
}

// Prepare models the scheduler decision, the preprocessing stage where the
// discipline runs it off the engine (otherwise RunTurn charges it at
// admission), and cold-cache staging (§4.2).
func (e *Executor) Prepare(worker int, req workload.Request, ready func(ok bool)) {
	now := e.clock.Now()
	at := now + e.ov.SchedulerDecision
	if e.disc == batching.DisaggregatedCB {
		// Preprocessing runs on a separate CPU process, off the GPU path.
		at += e.ov.Preprocess
	}
	if stageDone := e.stageReadyAt(worker, req, now); stageDone > at {
		at = stageDone
	}
	e.clock.At(at, func() { ready(true) })
}

// stageReadyAt consults the worker's cold-cache tier, scheduling the
// staging-completion event when the template must be fetched from disk.
func (e *Executor) stageReadyAt(worker int, req workload.Request, now float64) float64 {
	if len(e.tiers) == 0 {
		return now
	}
	tier := e.tiers[worker]
	stageDone := tier.ReadyAt(req.Template, now)
	if stageDone > now {
		tpl := req.Template
		e.clock.At(stageDone, func() { tier.Complete(tpl, stageDone) })
		recordStageCost(e.cfg.Obs, e.cfg.Profile, stageDone-now)
	}
	return stageDone
}

// RunTurn models one engine iteration. The engine is sequential, so the
// costs of a turn accumulate on one timeline from the boundary: delivering
// the retired requests, admitting the joined ones, then the steps.
func (e *Executor) RunTurn(t batching.Turn) []float64 {
	now := e.clock.Now()
	joinedAt := make([]float64, len(t.Joined))
	complete := func(i int, at float64) {
		e.clock.At(at, func() { t.Complete(i, true) })
	}
	var overhead float64
	if e.disc == batching.Static {
		// Serial preprocessing, aligned steps, serial postprocessing, and
		// the batch delivers together (Fig 10 baseline behavior).
		for i := range t.Retired {
			complete(i, e.staticEnd[t.Worker])
		}
		overhead = float64(len(t.Batch)) * e.ov.Preprocess
		for i := range joinedAt {
			joinedAt[i] = now + overhead
		}
	} else {
		for i := range t.Retired {
			if e.disc == batching.StrawmanCB {
				// Postprocessing blocks the GPU stream (Fig 10-Top).
				overhead += e.ov.Postprocess
				complete(i, now+overhead)
			} else {
				// The GPU only serializes the latent and hands it to the
				// postprocess worker; postprocessing overlaps (Fig 10-Bottom).
				overhead += e.ov.Serialize + e.ov.IPC
				complete(i, now+overhead+e.ov.Postprocess)
			}
		}
		for i := range joinedAt {
			if e.disc == batching.StrawmanCB {
				overhead += e.ov.Preprocess
			}
			joinedAt[i] = now + overhead
		}
	}
	if len(t.Batch) == 0 {
		return joinedAt
	}
	if e.Faults.Fire(faults.WorkerCrash(t.Worker)) {
		e.clock.After(0, func() { t.Done(true, nil) })
		return joinedAt
	}
	dur := overhead + e.stepCost(t.Batch, t.Aligned)
	if e.disc == batching.Static {
		e.staticEnd[t.Worker] = now + (dur + float64(len(t.Batch))*e.ov.Postprocess)
	} else {
		dur += e.ov.BatchOrganize
	}
	e.clock.After(dur, func() { t.Done(false, nil) })
	return joinedAt
}

// stepCost models aligned denoising steps of the batch as a single
// duration: per-step engine latency times the aligned step count. In
// digital-twin mode (Config.Costs) the per-step latency comes from the
// telemetry-fitted step law instead of the analytic device model.
func (e *Executor) stepCost(batch []batching.StepView, aligned int) float64 {
	views := make([]ReqView, len(batch))
	for i, s := range batch {
		views[i] = ReqView{
			Template:  s.Req.Template,
			MaskRatio: s.Req.MaskRatio,
			StepIndex: s.StepIndex,
		}
	}
	scale := PolicyComputeScale(e.cfg.StepPolicy, e.cfg.Profile, views)
	var lat float64
	if e.cfg.Costs != nil {
		// The fitted step law is linear in computed FLOPs plus a per-unit
		// fixed cost; a step policy removes block compute, not the fixed
		// cost, so the scale applies to the FLOP feature.
		flops, _ := BatchStepFLOPs(e.cfg.System, e.cfg.Profile, batch)
		lat = e.cfg.Costs.StepSeconds(flops*scale, len(batch))
	} else {
		lat = StepLatency(e.cfg.System, e.cfg.Profile, views)
		lat *= scale
	}
	if aligned != 1 {
		lat = float64(aligned) * lat
	}
	if d := e.Faults.Delay(faults.StepStage); d > 0 {
		lat += d.Seconds()
	}
	recordStepCost(e.cfg.Obs, e.cfg.System, e.cfg.Profile, batch, aligned, lat, scale)
	return lat
}

// Restart models the replica coming back after restartDelay.
func (e *Executor) Restart(_ int, up func()) { e.clock.After(restartDelay, up) }

// ReqView is the minimal request description the engine cost models need.
type ReqView struct {
	Template  uint64
	MaskRatio float64
	StepIndex int // current denoising step (for cache-load dedup)
}

// BatchStepFLOPs returns the mask-aware FLOPs (all blocks) and mask-ratio
// sum of one denoising step of the batch under the given system's compute
// pattern — the linear features the telemetry-fitted step law consumes, so
// they count what the live engine executes: FlashPS projects K/V over all
// tokens in the first block only and takes them derived from the template
// in the rest (the serving plane's stepFLOPs, RAM permitting; a guided
// model's unprompted pass is given its first block's too, which a profile
// without guidance passes does not distinguish).
func BatchStepFLOPs(sys System, p perfmodel.ModelProfile, batch []batching.StepView) (flops, maskSum float64) {
	blocks := float64(p.Blocks)
	for _, s := range batch {
		maskSum += s.Req.MaskRatio
		switch sys {
		case SystemDiffusers, SystemTeaCache:
			flops += blocks * p.BlockFLOPsFull()
		case SystemFISEdit:
			flops += blocks * p.BlockFLOPsMaskedKV(s.Req.MaskRatio)
		default: // SystemFlashPS
			flops += p.BlockFLOPsMasked(s.Req.MaskRatio) + (blocks-1)*p.BlockFLOPsMaskedKV(s.Req.MaskRatio)
		}
	}
	return flops, maskSum
}

// PolicyComputeScale returns the fraction of a batch step's block work an
// adaptive step policy plans to compute, averaged over the batch items'
// current step indices — decision-visible pricing
// (diffusion.PlannedReuseFraction; nothing data-dependent, so the sim and
// replay-real drivers derive the identical number). 1 when the policy is
// off.
func PolicyComputeScale(policy string, p perfmodel.ModelProfile, views []ReqView) float64 {
	if policy == "" || policy == "off" || len(views) == 0 {
		return 1
	}
	var sum float64
	for _, v := range views {
		sum += 1 - diffusion.PlannedReuseFraction(policy, v.StepIndex, p.Steps, p.Blocks)
	}
	return sum / float64(len(views))
}

// recordStepCost records one modeled batch step as a calibration cost
// sample. computeScale is the step's planned compute fraction
// (PolicyComputeScale): it discounts the FLOP feature and splits the block
// count into computed vs. policy-reused, so telemetry fitters can exclude
// priced-down samples.
func recordStepCost(plane *obs.Plane, sys System, p perfmodel.ModelProfile,
	batch []batching.StepView, aligned int, seconds, computeScale float64) {
	if plane == nil || len(batch) == 0 {
		return
	}
	flops, maskSum := BatchStepFLOPs(sys, p, batch)
	totalBlocks := len(batch) * aligned * p.Blocks
	computed := int(math.Round(float64(totalBlocks) * computeScale))
	plane.RecordCost(obs.CostSample{
		Stage:          obs.CostStageDenoiseStep,
		Units:          len(batch) * aligned,
		Batch:          len(batch),
		MaskSum:        maskSum,
		FLOPs:          flops * float64(aligned) * computeScale,
		BlocksComputed: computed,
		BlocksReused:   totalBlocks - computed,
		Seconds:        seconds,
	})
}

// recordStageCost records one cold-cache disk staging as a calibration
// cost sample.
func recordStageCost(plane *obs.Plane, p perfmodel.ModelProfile, seconds float64) {
	if plane == nil || seconds <= 0 {
		return
	}
	plane.RecordCost(obs.CostSample{
		Stage:   obs.CostStageCacheStage,
		Units:   1,
		Bytes:   p.TemplateCacheBytes(),
		Tier:    "disk",
		Seconds: seconds,
	})
}

// StepLatency computes one denoising step's duration for a batch under the
// given system's engine model. Exported so benchmarks and the scheduler can
// reuse the exact engine cost model.
func StepLatency(sys System, p perfmodel.ModelProfile, batch []ReqView) float64 {
	if len(batch) == 0 {
		return 0
	}
	switch sys {
	case SystemDiffusers, SystemTeaCache:
		return p.StepLatencyFull(len(batch))
	case SystemFISEdit:
		// Sparse kernels, one request at a time, no cache reuse.
		var total float64
		for _, r := range batch {
			total += float64(p.Blocks) * p.BlockComputeFISEdit(r.MaskRatio)
		}
		return total
	default: // SystemFlashPS
		ratios := make([]float64, len(batch))
		items := make([]perfmodel.LoadItem, len(batch))
		for i, r := range batch {
			ratios[i] = r.MaskRatio
			items[i] = perfmodel.LoadItem{Template: r.Template, Step: r.StepIndex, Ratio: r.MaskRatio}
		}
		cost := pipeline.BlockCost{
			CompCached: p.BlockComputeMasked(ratios),
			CompFull:   p.BlockComputeFull(len(batch)),
			Load:       p.BlockLoadBatch(items),
		}
		return pipeline.UniformLatency(cost, p.Blocks)
	}
}
