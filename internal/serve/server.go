package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flashps/internal/batching"
	"flashps/internal/cache"
	"flashps/internal/diffusion"
	"flashps/internal/faults"
	"flashps/internal/fleet"
	"flashps/internal/img"
	"flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/perfmodel"
	"flashps/internal/workload"
)

// Config parameterizes the serving plane.
type Config struct {
	// Model is the numeric engine configuration.
	Model model.Config
	// Profile is the paper-scale profile backing the mask-aware
	// scheduler's latency regressions.
	Profile perfmodel.ModelProfile
	// Workers is the number of engine replicas ("GPU processes").
	Workers int
	// MaxBatch bounds each worker's running batch.
	MaxBatch int
	// PreWorkers / PostWorkers size the CPU stage pools.
	PreWorkers, PostWorkers int
	// CacheBudgetBytes bounds the host activation cache (0 = 1 GiB).
	CacheBudgetBytes int64
	// CacheDir, when set, enables the disk tier (§4.2): template caches
	// are written through to disk and staged back after host LRU eviction.
	CacheDir string
	// Policy routes requests across workers.
	Policy batching.Policy
	// Discipline selects the batching discipline the engine loops run
	// under; the zero value is the paper's disaggregated continuous
	// batching. Static admits only into an empty batch; strawman-cb runs
	// postprocessing inline on the engine loop (the Fig 10-Top defect),
	// for apples-to-apples comparison against the simulator.
	Discipline batching.Discipline
	// StepPolicy is the default adaptive step-caching policy applied to
	// requests that do not name one ("block", "layer", "timestep",
	// "combined"; "" or "off" disables). It composes with the flashps/full
	// modes; TeaCache and naive-skip requests ignore the default.
	StepPolicy string
	// StepPolicyByClass maps SLO-class names (obs.DefaultSLOClasses:
	// "interactive", "standard", "relaxed") to step-policy names, letting
	// tight-deadline small-mask classes run leaner policies than relaxed
	// full-image edits. It is consulted after the request's own policy
	// field and before StepPolicy.
	StepPolicyByClass map[string]string
	// MaxQueue, when > 0, bounds each worker's outstanding requests;
	// submissions beyond it first try to shed a larger-mask outstanding
	// job and otherwise are rejected immediately (admission control /
	// backpressure) instead of queueing unboundedly.
	MaxQueue int
	// TraceRing sizes the span trace ring buffer (spans retained for
	// /debug/traces); 0 uses obs.DefaultTraceRing.
	TraceRing int
	// FlightDir, when set, arms the flight-recorder sink: whenever an
	// alert pages or a fault rule trips, the plane's flight snapshot is
	// written to <FlightDir>/flightrecorder.json beside the other
	// artifacts (the file is overwritten on each trip; the snapshot's
	// reason field says why the latest dump was taken).
	FlightDir string
	// Seed fixes engine weights; all workers share it so template caches
	// are valid on every replica.
	Seed uint64

	// MaxRetries bounds how many times a job orphaned by a worker crash is
	// re-executed on an alternate replica (0 = default 2; negative
	// disables retries). Retries are idempotent: the job re-runs its
	// deterministic seed-driven pipeline from preprocessing.
	MaxRetries int
	// RetryBackoff is the base of the capped exponential backoff before
	// each retry attempt (0 = default 25ms; capped at 8× the base).
	RetryBackoff time.Duration
	// WorkerRestartDelay is how long a crashed worker loop waits before
	// restarting (0 = default 50ms). While down, the scheduler does not
	// route to the replica; /healthz reports "degraded" when no routable
	// replica is left alive.
	WorkerRestartDelay time.Duration
	// CacheLoadTimeout, when > 0, degrades a flashps-mode request to full
	// compute when its template-cache load takes longer than this,
	// instead of stalling the cached path.
	CacheLoadTimeout time.Duration
	// Faults optionally injects failures and delays into the request path
	// (tests, load generator); nil injects nothing.
	Faults *faults.Injector

	// Router selects the fleet routing policy (DESIGN.md §12): "" or
	// "core" delegates placement to the batching core's policy (the
	// pre-fleet behavior), "least-loaded" and "affinity" route through the
	// fleet controller.
	Router string
	// MaxReplicas bounds the worker pool the autoscaler can grow into
	// (0 or < Workers: Workers). Replicas beyond Workers start Down —
	// their engine loops run but the router sends them no traffic until a
	// scale-up activates them.
	MaxReplicas int
	// AdmitRate/AdmitBurst parameterize the fleet admission token bucket
	// in requests per second (Rate ≤ 0 disables rate limiting).
	AdmitRate  float64
	AdmitBurst float64
	// AdmitMinServiceMS arms the deadline-feasibility reject: a request
	// whose effective deadline is below this floor is rejected up front
	// (≤ 0 disables).
	AdmitMinServiceMS float64
	// Autoscale arms the SLO-driven autoscaler over [Workers, pool].
	Autoscale fleet.AutoscaleConfig
	// StagedTemplates, when > 0, bounds each worker's replica-local staged
	// template set: the first request for a template on a replica pays a
	// staging pass over the whole cache entry (recorded as a
	// "replica_stage" span and cost sample), making template-affinity
	// routing's benefit measurable on the live plane. 0 disables staging.
	StagedTemplates int
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4
	}
	if c.PreWorkers <= 0 {
		c.PreWorkers = 2
	}
	if c.PostWorkers <= 0 {
		c.PostWorkers = 2
	}
	if c.CacheBudgetBytes <= 0 {
		c.CacheBudgetBytes = 1 << 30
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.WorkerRestartDelay <= 0 {
		c.WorkerRestartDelay = 50 * time.Millisecond
	}
}

// job is one in-flight edit request: what the stages of the wall executor
// need and leave behind. Where the request is, and how it ends, is the
// batching.Runner's state; the job's fields are written by one stage at a
// time, in the order the Runner runs them.
type job struct {
	id        uint64
	api       EditRequestAPI
	mode      diffusion.EditMode
	ratioHint float64 // the scheduler's view, estimated before rasterization
	arrival   time.Time

	// ctx is the caller's context, canceled as soon as the request has a
	// terminal state; the stages check it to stop working for a waiter
	// that is gone.
	ctx    context.Context
	cancel context.CancelFunc
	// resp receives the request's one result when the Runner reports its
	// terminal state.
	resp chan jobResult

	worker         *worker
	ratio          float64 // rasterized mask ratio
	session        *diffusion.EditSession
	degraded       bool
	degradedReason string
	latentBytes    []byte
	handoff        time.Time
	png            []byte
	stepsComputed  int
	err            error // what failed the stage that reported !ok
}

type jobResult struct {
	resp EditResponse
	err  error
}

// aborted reports that nobody waits for the job any more: it has its
// terminal state (completed, shed, evicted, failed) or its caller gave up.
// Stages consult it to skip dead work; the Runner evicts at boundaries.
func (j *job) aborted() bool { return j.ctx.Err() != nil }

// abandoned is aborted for a stage about to report to the Runner: a stage
// may see the caller's context expire before the caller's own Abort
// arrives, so it aborts first, and what it then reports as not done lands
// on an evicted request, not a failed one.
func (s *Server) abandoned(j *job) bool {
	if !j.aborted() {
		return false
	}
	s.runner.Abort(int(j.id), abortReason(j.ctx))
	return true
}

// abortReason says why a done context's request is being evicted.
func abortReason(ctx context.Context) string {
	if ctx.Err() == context.DeadlineExceeded {
		return batching.ReasonDeadline
	}
	return batching.ReasonCanceled
}

// Server is the multi-worker serving plane.
type Server struct {
	cfg     Config
	store   *cache.TieredStore
	faults  *faults.Injector
	workers []*worker

	// engProfile describes the numeric engine actually executing (not the
	// paper-scale scoring profile): its dimensions feed the mask-aware
	// FLOP features on recorded cost samples, so a telemetry fit predicts
	// this engine.
	engProfile perfmodel.ModelProfile

	// runner is the batching.Runner the simulator and the replay drivers
	// also run: it moves every request from arrival to its terminal state
	// on the plane's wall clock, through core for every placement,
	// admission, shedding and retry decision (see Decisions), ctrl for
	// fleet admission and routing, and the wall executor for the work.
	runner *batching.Runner
	core   *batching.Core

	// ctrl is the fleet control plane: admission, routing (when a fleet
	// router is selected), replica lifecycle, and the SLO-driven
	// autoscaler. It is always present — with the zero fleet config it
	// admits everything and marks every worker Active. It is the same code
	// the virtual-time drivers run (DESIGN.md §8).
	ctrl *fleet.Controller

	// pre and post are the CPU stage pools of the disaggregated discipline
	// (Fig 10-Bottom).
	pre, post *pool

	// jobs holds every request the Runner has no terminal state for yet,
	// by request id.
	jobsMu sync.Mutex
	jobs   map[uint64]*job

	completed atomic.Int64

	obs     *serveObs
	started atomic.Bool

	nextID atomic.Uint64
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// job returns the registered job of a Runner request id, nil once the
// request has its terminal state.
func (s *Server) job(id int) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.jobs[uint64(id)]
}

// New builds a serving plane; call Start before submitting work and Close
// when done.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if _, err := diffusion.PolicyByName(cfg.StepPolicy); err != nil {
		return nil, fmt.Errorf("serve: step policy: %v", err)
	}
	for class, name := range cfg.StepPolicyByClass {
		if _, err := diffusion.PolicyByName(name); err != nil {
			return nil, fmt.Errorf("serve: step policy for class %q: %v", class, err)
		}
	}
	routerKind, err := fleet.ParseRouter(cfg.Router)
	if err != nil {
		return nil, fmt.Errorf("serve: %v", err)
	}
	est, err := perfmodel.ServingEstimator(cfg.Profile, cfg.Seed)
	if err != nil {
		return nil, err
	}
	sObs := newServeObs(cfg.TraceRing)
	if cfg.FlightDir != "" {
		dir := cfg.FlightDir
		sObs.plane.SetFlightSink(func(snap obs.FlightSnapshot) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return
			}
			var b strings.Builder
			if err := snap.WriteJSON(&b); err != nil {
				return
			}
			_ = os.WriteFile(filepath.Join(dir, obs.ArtifactFlightRecorder),
				[]byte(b.String()), 0o644)
		})
	}
	// The tiered store reports into the plane as it operates: per-tier
	// op/byte counters, and timed spill transfers as calibration cost
	// samples (loads fit the disk staging law, stores the spill law).
	store, err := cache.NewTieredStore(cache.TieredConfig{
		RAMBudget: cfg.CacheBudgetBytes,
		SpillDir:  cfg.CacheDir,
		Policy:    cache.PolicyCostAware,
		Observer:  sObs.plane.CacheTier,
		Transfer: func(op string, bytes int64, seconds float64) {
			stage := obs.CostStageCacheStage
			if op == "store" {
				stage = obs.CostStageCacheSpill
			}
			sObs.cost(obs.CostSample{Stage: stage, Units: 1,
				Bytes: float64(bytes), Tier: "disk", Seconds: seconds})
		},
	})
	if err != nil {
		return nil, err
	}
	// The replica pool: Workers start Active; any headroom up to
	// MaxReplicas starts Down, invisible to routing until the autoscaler
	// activates it.
	pool := cfg.Workers
	if cfg.MaxReplicas > pool {
		pool = cfg.MaxReplicas
	}
	// Register the fleet metric families only when some fleet feature is
	// actually in play, so a plain single-pool server keeps the pre-fleet
	// exposition byte-identically.
	var fleetMetrics *obs.FleetMetrics
	if routerKind != fleet.RouterCore || pool > cfg.Workers ||
		cfg.Autoscale.Enabled || cfg.AdmitRate > 0 || cfg.AdmitMinServiceMS > 0 {
		fleetMetrics = sObs.plane.Fleet()
	}
	ctrl, err := fleet.NewController(fleet.Config{
		Replicas:          cfg.Workers,
		MaxReplicas:       pool,
		Router:            routerKind,
		TokenRate:         cfg.AdmitRate,
		TokenBurst:        cfg.AdmitBurst,
		MinServiceSeconds: cfg.AdmitMinServiceMS / 1000,
		QueueHeadroom:     cfg.MaxBatch,
		// The affinity score's terms come from the same paper-scale
		// profile: a miss costs one disk staging, queued work is priced at
		// the full per-request service time.
		MissPenaltySeconds: cfg.Profile.DiskLoadLatency(),
		ServiceSeconds:     cfg.Profile.StepLatencyFull(1) * float64(cfg.Profile.Steps),
		Autoscale:          cfg.Autoscale,
		Metrics:            fleetMetrics,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// The Runner's telemetry bridge mirrors the core's decision stream into
	// the plane's per-kind counters and reports every terminal state.
	telemetry := batching.NewTelemetry(sObs.plane)
	dlog := new(batching.DecisionLog)
	dlog.SetSink(telemetry.DecisionSink())
	s := &Server{
		cfg:    cfg,
		store:  store,
		faults: cfg.Faults,
		engProfile: perfmodel.EngineProfile(cfg.Model.Name, cfg.Model.NumBlocks,
			cfg.Model.Tokens(), cfg.Model.Hidden, cfg.Model.FFNMult,
			cfg.Model.Steps, cfg.MaxBatch),
		core: batching.NewCore(batching.CoreConfig{
			Policy:       cfg.Policy,
			Discipline:   cfg.Discipline,
			Estimator:    est,
			MaxBatch:     cfg.MaxBatch,
			Seed:         cfg.Seed,
			MaxQueue:     cfg.MaxQueue,
			MaxRetries:   cfg.MaxRetries,
			RetryBackoff: cfg.RetryBackoff.Seconds(),
			Log:          dlog,
		}),
		pre:    newPool(),
		post:   newPool(),
		jobs:   make(map[uint64]*job),
		obs:    sObs,
		ctrl:   ctrl,
		ctx:    ctx,
		cancel: cancel,
	}
	s.obs.bindStore(store)
	// Warm-start prefetch: promote templates spilled by a previous process
	// into RAM while the server boots.
	store.Prefetch(store.SpilledIDs()...)
	for i := 0; i < pool; i++ {
		eng, err := diffusion.NewEngine(cfg.Model, cfg.Seed)
		if err != nil {
			cancel()
			return nil, err
		}
		s.workers = append(s.workers, &worker{id: i, eng: eng, loop: newPool()})
		s.obs.plane.SetQueueDepth(i, 0)
	}
	s.runner = batching.NewRunner(batching.RunnerConfig{
		Workers:   pool,
		CostSteps: cfg.Model.Steps,
		Core:      s.core,
		Clock:     sObs.wall,
		Exec:      wallExecutor{s},
		Obs:       observer{telemetry, s},
		Fleet:     timedFleet{ctrl.Front(), s},
	})
	return s, nil
}

// Start launches the CPU pools and one engine goroutine per replica.
func (s *Server) Start() {
	s.pre.start(s.cfg.PreWorkers, &s.wg)
	s.post.start(s.cfg.PostWorkers, &s.wg)
	for _, w := range s.workers {
		w.loop.start(1, &s.wg)
	}
	// Alert decay tick: the live plane re-evaluates its burn-rate windows
	// on wall time so alert states decay when traffic stops (the replay
	// drivers instead evaluate at completion events so their virtual event
	// queues stay finite).
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-t.C:
				s.obs.plane.Tick()
			}
		}
	}()
	// Autoscaler ticker: the same Controller.Tick the virtual-time drivers
	// chain on their simclock, here driven by wall time mapped onto the
	// plane's clock axis.
	if s.ctrl.AutoscaleEnabled() {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(time.Duration(s.ctrl.TickInterval() * float64(time.Second)))
			defer t.Stop()
			for {
				select {
				case <-s.ctx.Done():
					return
				case <-t.C:
					s.ctrl.Tick(s.obs.wall.Now(), s.runner.OutstandingCounts())
				}
			}
		}()
	}
	s.started.Store(true)
}

// Registry exposes the metrics registry backing /metrics, so embedding
// services can add their own instruments or scrape programmatically.
func (s *Server) Registry() *obs.Registry { return s.obs.reg }

// Tracer exposes the span tracer backing /debug/traces.
func (s *Server) Tracer() *obs.Tracer { return s.obs.tracer }

// Obs exposes the full telemetry plane (SLO tracker, windowed quantiles,
// artifact dumps) backing /metrics.
func (s *Server) Obs() *obs.Plane { return s.obs.plane }

// EngineProfile returns the ModelProfile describing the numeric engine this
// server executes — the profile whose dimensions feed the FLOP features on
// recorded cost samples. Calibration (perfmodel.FitFromTelemetry) must fit
// against this same profile for the features to line up.
func (s *Server) EngineProfile() perfmodel.ModelProfile { return s.engProfile }

// stepFLOPs is the FLOPs the session's last step actually executed in its
// computed blocks, from the engine profile and the session's own count of
// what ran: cached modes
// compute masked rows — and project K/V over all rows only in the blocks
// that did not take them derived (or recorded) — full and teacache compute
// every row, reused blocks and TeaCache-skipped steps contribute zero. So
// the cost samples are honest work for calibration to fit a law to.
func (s *Server) stepFLOPs(j *job, computed int) float64 {
	kv := j.session.LastStepBlocksKV()
	mode := j.mode
	if j.degraded {
		mode = diffusion.EditFull
	}
	switch mode {
	case diffusion.EditCachedY, diffusion.EditCachedKV, diffusion.EditNaiveSkip:
		return s.engProfile.BlockFLOPsMasked(j.ratio)*float64(computed-kv) +
			s.engProfile.BlockFLOPsMaskedKV(j.ratio)*float64(kv)
	default: // EditFull, EditTeaCache
		return s.engProfile.BlockFLOPsFull() * float64(computed)
	}
}

// stepPolicyFor resolves the effective step-caching policy for a job:
// the request's own policy field, then the SLO-class mapping keyed by the
// rasterized mask ratio, then the server default. Server-side defaults are
// skipped for modes a policy cannot compose with, so a plain teacache
// request never trips the engine's composability check.
func (s *Server) stepPolicyFor(j *job) string {
	if p := j.api.Policy; p != "" {
		return p
	}
	if j.mode == diffusion.EditTeaCache || j.mode == diffusion.EditNaiveSkip {
		return ""
	}
	if len(s.cfg.StepPolicyByClass) > 0 {
		class := obs.ClassFor(obs.DefaultSLOClasses, j.ratio)
		if p, ok := s.cfg.StepPolicyByClass[class.Name]; ok {
			return p
		}
	}
	return s.cfg.StepPolicy
}

// Decisions returns the batching core's decision sequence so far: every
// placement, admission, shed, and rejection, in order. Tests and operators
// observe scheduling behavior through this log instead of worker internals.
func (s *Server) Decisions() []batching.Decision { return s.core.Decisions() }

// Close stops all goroutines, waits for them, and drains the template
// store's write-back queue so every prepared template is durable on the
// spill tier.
func (s *Server) Close() {
	s.cancel()
	s.runner.Stop()
	s.pre.close()
	s.post.close()
	for _, w := range s.workers {
		w.loop.close()
	}
	s.wg.Wait()
	s.store.Close()
}

// Prepare registers a template: renders the synthetic template image, runs
// the cache-population pass and stores the activation cache. Prepare is
// idempotent on TemplateID — re-preparing an existing id returns the
// existing cache (Reused=true) without recomputation; delete it first to
// re-prepare with different content.
func (s *Server) Prepare(req PrepareRequest) (PrepareResponse, error) {
	if len(s.workers) == 0 {
		return PrepareResponse{}, apiErrorf(CodeInternal, false, "serve: no workers")
	}
	// Idempotency check doubles as prefetch-on-prepare: a template that
	// only lives on the spill tier is promoted into RAM here, ahead of
	// the edits the prepare call foreshadows.
	if tc, _ := s.store.GetTracked(req.TemplateID); tc != nil {
		b := tc.CacheBytes()
		tc.Release()
		return PrepareResponse{TemplateID: req.TemplateID, CacheBytes: b, Reused: true}, nil
	}
	eng := s.workers[0].eng
	cfg := s.cfg.Model
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	var template *img.Image
	if len(req.ImagePNG) > 0 {
		decoded, err := img.Decode(req.ImagePNG)
		if err != nil {
			return PrepareResponse{}, apiErrorf(CodeInvalidRequest, false, "template image: %v", err)
		}
		template = img.Resize(decoded, h, w)
	} else {
		template = img.SynthTemplate(req.ImageSeed, h, w)
	}
	start := time.Now()
	tc, _, err := eng.PrepareTemplate(req.TemplateID, template, req.Prompt, false)
	if err != nil {
		return PrepareResponse{}, asAPIError(err)
	}
	elapsed := time.Since(start)
	// The measured prepare time is the recompute-cost term of the store's
	// cost-aware eviction score: losing this template costs this long.
	if err := s.store.PutCost(req.TemplateID, tc, elapsed.Seconds()); err != nil {
		return PrepareResponse{}, asAPIError(err)
	}
	return PrepareResponse{
		TemplateID: req.TemplateID,
		CacheBytes: tc.SizeBytes(),
		PrepareMS:  float64(elapsed.Microseconds()) / 1000,
	}, nil
}

// ListTemplates returns the cached templates across tiers, ascending by id.
func (s *Server) ListTemplates() []TemplateInfo {
	infos := s.store.List()
	out := make([]TemplateInfo, len(infos))
	for i, e := range infos {
		out[i] = TemplateInfo{
			TemplateID: e.ID, Bytes: e.Bytes, DerivedBytes: e.DerivedBytes, Tier: e.Tier,
			Pinned: e.Pinned, Hits: e.Hits,
			LastUsedMS: lastUsedMS(e.LastUsed),
		}
	}
	return out
}

func lastUsedMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// DeleteTemplate invalidates a template's host and disk cache entries.
// Pinned templates refuse with a template_pinned APIError; unknown ids
// return template_not_found.
func (s *Server) DeleteTemplate(id uint64) error {
	if err := s.store.Delete(id); err != nil {
		return asAPIError(err)
	}
	return nil
}

// PinTemplate makes a template eviction-proof, promoting it into RAM if
// it only lives on the spill tier.
func (s *Server) PinTemplate(id uint64) error {
	if err := s.store.Pin(id); err != nil {
		return asAPIError(err)
	}
	return nil
}

// UnpinTemplate clears a pin.
func (s *Server) UnpinTemplate(id uint64) error {
	if err := s.store.Unpin(id); err != nil {
		return asAPIError(err)
	}
	return nil
}

// CacheStats returns the per-tier cache statistics for /v1/cache/stats.
func (s *Server) CacheStats() CacheStatsResponse {
	tiers := s.store.Stats()
	out := CacheStatsResponse{Tiers: make([]CacheTierStats, len(tiers))}
	for i, ts := range tiers {
		hitRate := 0.0
		if ts.Hits+ts.Misses > 0 {
			hitRate = float64(ts.Hits) / float64(ts.Hits+ts.Misses)
		}
		out.Tiers[i] = CacheTierStats{
			Tier: ts.Tier, CapacityBytes: ts.CapacityBytes,
			UsedBytes: ts.UsedBytes, LogicalBytes: ts.LogicalBytes,
			DerivedBytes: ts.DerivedBytes, Derivations: ts.Derivations,
			Entries: ts.Entries, Pinned: ts.Pinned,
			Hits: ts.Hits, Misses: ts.Misses, Evictions: ts.Evictions,
			HitRate: hitRate, Blocks: ts.Blocks, SharedBlocks: ts.SharedBlocks,
			DedupRatio: ts.DedupRatio,
		}
	}
	return out
}

// SubmitEdit serves one edit request synchronously: admission → route →
// preprocess → continuous-batched denoising → postprocess, every step of
// it a transition of the batching.Runner. The caller's ctx plus the
// optional DeadlineMS field bound the request: on expiry SubmitEdit
// returns immediately with a deadline_exceeded/canceled APIError and the
// Runner evicts the job at its next stage or step boundary.
func (s *Server) SubmitEdit(ctx context.Context, api EditRequestAPI) (EditResponse, error) {
	mode, err := parseMode(api.Mode)
	if err != nil {
		return EditResponse{}, apiErrorf(CodeInvalidRequest, false, "%v", err)
	}
	if _, err := diffusion.PolicyByName(api.Policy); err != nil {
		return EditResponse{}, apiErrorf(CodeInvalidRequest, false, "%v", err)
	}
	j := &job{
		id:        s.nextID.Add(1),
		api:       api,
		mode:      mode,
		arrival:   time.Now(),
		resp:      make(chan jobResult, 1),
		ratioHint: s.maskRatioHint(api.Mask),
	}
	j.ctx, j.cancel = context.WithCancel(ctx)
	defer j.cancel()
	s.jobsMu.Lock()
	s.jobs[j.id] = j
	s.jobsMu.Unlock()

	// One call runs fleet admission, routing across live replicas and the
	// overload policy. A request turned away has its error waiting in
	// j.resp already.
	s.runner.Submit(workload.Request{
		ID: int(j.id), Arrival: s.obs.wall.Seconds(j.arrival),
		Template: api.TemplateID, MaskRatio: j.ratioHint,
	}, float64(api.DeadlineMS)/1000)

	closed := apiErrorf(CodeInternal, false, "serve: server closed")
	select {
	case res := <-j.resp:
		return res.resp, res.err
	case <-ctx.Done():
		// The Runner reports the eviction (or whatever terminal state won
		// the race) into j.resp.
		s.runner.Abort(int(j.id), abortReason(ctx))
		select {
		case res := <-j.resp:
			return res.resp, res.err
		case <-s.ctx.Done():
			return EditResponse{}, closed
		}
	case <-s.ctx.Done():
		return EditResponse{}, closed
	}
}

// timedFleet is the fleet front with the routing decision (Algorithm 2 or
// the fleet router) timed: the paper's §6.6 scheduling overhead.
type timedFleet struct {
	batching.Fleet
	s *Server
}

func (f timedFleet) Place(core *batching.Core, req workload.Request, item batching.Item,
	views []batching.WorkerView, alive []bool) (int, bool) {
	t0 := time.Now()
	worker, ok := f.Fleet.Place(core, req, item, views, alive)
	if ok {
		decision := time.Since(t0)
		f.s.obs.span(item.ID, stageSchedule, worker, t0, decision,
			obs.Arg("mask_ratio_hint", item.MaskRatio))
		f.s.obs.cost(obs.CostSample{Stage: obs.CostStageSchedule, Units: 1,
			Seconds: decision.Seconds()})
	}
	return worker, ok
}

// observer is the Runner's Observer on the serving plane: the shared
// telemetry bridge, plus the delivery of every terminal state to the
// request's waiter.
type observer struct {
	*batching.Telemetry
	s *Server
}

// QueueDepth and Outstanding: the serving plane's
// flashps_worker_queue_depth is the outstanding count (what /healthz,
// /v1/fleet and the MaxQueue limit go by), not the ready queue alone.
func (o observer) QueueDepth(int, int) {}

func (o observer) Outstanding(worker, n int) { o.s.obs.plane.SetQueueDepth(worker, n) }

// RequestDone turns a terminal state into the waiter's response or error
// envelope, after the counters a client may read next have moved.
func (o observer) RequestDone(st batching.RequestStat) {
	o.Telemetry.RequestDone(st)
	s := o.s
	s.jobsMu.Lock()
	j := s.jobs[uint64(st.ID)]
	delete(s.jobs, uint64(st.ID))
	s.jobsMu.Unlock()
	if j == nil {
		return
	}
	var res jobResult
	switch st.Outcome {
	case batching.Completed:
		s.completed.Add(1)
		res.resp = EditResponse{
			RequestID:      j.id,
			Worker:         st.Worker,
			MaskRatio:      j.ratio,
			QueueMS:        st.QueueTime() * 1e3,
			InferenceMS:    st.InferenceTime() * 1e3,
			TotalMS:        st.Latency() * 1e3,
			StepsComputed:  j.stepsComputed,
			ImagePNG:       j.png,
			Degraded:       j.degraded,
			DegradedReason: j.degradedReason,
			Retries:        st.Retries,
			DeadlineMS:     j.api.DeadlineMS,
			Policy:         j.session.Policy(),
			TraceID:        obs.FormatTraceID(obs.TraceID(j.id)),
		}
		if r := j.session.ReusedBlockRatio(); r > 0 {
			res.resp.ReusedBlockRatio = r
		}
	case batching.Shed:
		s.obs.span(j.id, stageEvict, st.Worker, time.Now(), 0,
			obs.Arg("shed", 1).And("mask_ratio_hint", j.ratioHint))
		s.obs.plane.RecordFlight("shed", j.id, st.Worker,
			fmt.Sprintf("mask_ratio=%.2f", j.ratioHint))
		res.err = apiErrorf(CodeOverloaded, true,
			"shed under overload for smaller-mask work (mask ratio %.2f)", j.ratioHint)
	case batching.Evicted:
		s.obs.span(j.id, stageEvict, st.Worker, time.Now(), 0,
			obs.Arg("deadline_ms", float64(j.api.DeadlineMS)))
		if st.Reason == batching.ReasonDeadline {
			s.obs.deadlineExceeded.Inc()
			s.obs.plane.RecordFlight("deadline_miss", j.id, st.Worker,
				fmt.Sprintf("deadline_ms=%d", j.api.DeadlineMS))
			res.err = apiErrorf(CodeDeadlineExceeded, true,
				"deadline of %d ms exceeded", j.api.DeadlineMS)
		} else {
			s.obs.plane.RecordFlight("canceled", j.id, st.Worker, "client canceled")
			res.err = apiErrorf(CodeCanceled, false, "request canceled by client")
		}
	case batching.Rejected:
		switch st.Reason {
		case "deadline_infeasible":
			res.err = apiErrorf(CodeDeadlineExceeded, false,
				"deadline of %d ms is below the admission service floor", j.api.DeadlineMS)
		case "rate_limited":
			res.err = apiErrorf(CodeOverloaded, true, "admission rate limit exceeded")
		case batching.ReasonNoReplica:
			res.err = apiErrorf(CodeOverloaded, true, "no live worker replicas")
		default:
			res.err = ErrOverloaded
		}
	case batching.Failed:
		switch st.Reason {
		case batching.ReasonRetries:
			res.err = apiErrorf(CodeInternal, true,
				"worker %d crashed; retry budget (%d) exhausted", st.Worker, s.cfg.MaxRetries)
		case batching.ReasonNoReplica:
			res.err = apiErrorf(CodeOverloaded, true, "no live worker replicas")
		default:
			res.err = asAPIError(j.err)
		}
	}
	j.resp <- res // buffered, and the Runner reports one terminal state
	j.cancel()
}

// maskRatioHint estimates a request's mask ratio before rasterization, for
// routing purposes.
func (s *Server) maskRatioHint(m MaskSpec) float64 {
	grid := float64(s.cfg.Model.LatentH * s.cfg.Model.LatentW)
	switch m.Type {
	case "ratio":
		return m.Ratio
	case "rect", "ellipse":
		area := float64((m.Y1 - m.Y0) * (m.X1 - m.X0))
		if m.Type == "ellipse" {
			area *= 0.785 // π/4
		}
		ratio := area / grid
		if ratio < 0 {
			ratio = 0
		}
		if ratio > 1 {
			ratio = 1
		}
		return ratio
	case "full":
		return 1
	default:
		return 0.2
	}
}

func parseMode(mode string) (diffusion.EditMode, error) {
	switch mode {
	case "", "flashps":
		return diffusion.EditCachedY, nil
	case "full":
		return diffusion.EditFull, nil
	case "naive":
		return diffusion.EditNaiveSkip, nil
	case "teacache":
		return diffusion.EditTeaCache, nil
	default:
		return 0, fmt.Errorf("serve: unknown mode %q", mode)
	}
}

// degradeReasonFor distinguishes an injected load failure from a slow
// load exceeding the configured timeout.
const (
	degradeCacheFailed  = "cache_load_failed"
	degradeCacheTimeout = "cache_load_timeout"
)

func (s *Server) preprocess(j *job) error {
	cfg := s.cfg.Model
	m, err := j.api.Mask.Build(cfg.LatentH, cfg.LatentW)
	if err != nil {
		return apiErrorf(CodeInvalidRequest, false, "%v", err)
	}
	j.ratio = m.Ratio()
	t0 := time.Now()
	if d := s.faults.Delay(faults.CacheLoad); d > 0 {
		sleepCtx(j.ctx, d)
	}
	tc, loaded := s.store.GetTracked(j.api.TemplateID)
	loadFailed := s.faults.Fire(faults.CacheLoad)
	elapsed := time.Since(t0)
	if tc == nil {
		s.obs.span(j.id, stageCacheLoad, j.worker.id, t0, elapsed,
			obs.Arg("template", float64(j.api.TemplateID)).And("hit", 0))
		return apiErrorf(CodeTemplateNotFound, false,
			"template %d not prepared", j.api.TemplateID)
	}
	defer tc.Release() // the edit session holds it from BeginEdit on
	// Feed the serving mask ratio into the store's cost-aware score, and
	// record the load with the tier that actually served it so the fit can
	// separate host hits from disk promotions.
	s.store.Observe(j.api.TemplateID, j.ratio)
	s.obs.cost(obs.CostSample{Stage: obs.CostStageCacheLoad, Units: 1,
		Bytes: float64(tc.SizeBytes()), Tier: loaded.Tier, Seconds: elapsed.Seconds()})
	// Graceful degradation: a failed or slow cache load must not kill a
	// flashps-mode request — fall back to full compute and record why.
	mode := j.mode
	if mode == diffusion.EditCachedY || mode == diffusion.EditCachedKV {
		switch {
		case loadFailed:
			mode = diffusion.EditFull
			j.degraded, j.degradedReason = true, degradeCacheFailed
		case s.cfg.CacheLoadTimeout > 0 && elapsed > s.cfg.CacheLoadTimeout:
			mode = diffusion.EditFull
			j.degraded, j.degradedReason = true, degradeCacheTimeout
		}
	}
	req := diffusion.EditRequest{
		Template: tc,
		Mask:     m,
		Prompt:   j.api.Prompt,
		Seed:     j.api.Seed,
		Mode:     mode,
		Policy:   s.stepPolicyFor(j),
	}
	// The store may hold the template as its derived form, which serves
	// every edit that does not read Y; one that does reads it from the
	// spill tier for itself.
	if tc.IsDerivedForm() && j.worker.eng.ReadsY(req) {
		if y, err := s.store.GetY(j.api.TemplateID); err == nil {
			req.Template = y
		} else {
			req.Mode = diffusion.EditFull
			j.degraded, j.degradedReason = true, degradeCacheFailed
		}
		elapsed = time.Since(t0)
	}
	derived := 0.0
	if req.Template.IsDerivedForm() {
		derived = 1
	}
	s.obs.span(j.id, stageCacheLoad, j.worker.id, t0, elapsed,
		obs.Arg("template", float64(j.api.TemplateID)).And("derived", derived))
	if j.degraded {
		s.obs.degraded.Inc()
		s.obs.plane.RecordFlight("degraded", j.id, j.worker.id, j.degradedReason)
		if loadFailed {
			// A fault rule fired: dump the flight recorder so the
			// artifact pins the request that hit it.
			s.obs.plane.TripFlight("fault:" + j.degradedReason)
		}
	}
	// Replica-local staging (fleet mode): the first request for this
	// template on this replica pays a pass over the whole cache entry.
	// Affinity routing exists to keep paying this at most once per
	// (replica, template).
	if s.cfg.StagedTemplates > 0 {
		t1 := time.Now()
		if stagedNow, bytes := j.worker.ensureStaged(tc, s.cfg.StagedTemplates); stagedNow {
			d := time.Since(t1)
			s.obs.stagings.Inc()
			s.obs.span(j.id, stageReplicaStage, j.worker.id, t1, d,
				obs.Arg("template", float64(j.api.TemplateID)).And("bytes", float64(bytes)))
			s.obs.cost(obs.CostSample{Stage: obs.CostStageReplicaStage, Units: 1,
				Bytes: float64(bytes), Seconds: d.Seconds()})
		}
	}
	session, err := j.worker.eng.BeginEdit(req)
	if err != nil {
		return apiErrorf(CodeInvalidRequest, false, "%v", err)
	}
	j.session = session
	return nil
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Snapshot returns the live statistics. Latency figures come from the
// telemetry plane's per-stage quantile windows (all-time means, windowed
// P95), so they cost no memory of their own.
func (s *Server) Snapshot() Stats {
	host := s.store.Stats()[0]
	meanUS := func(count uint64, sum float64) float64 {
		if count == 0 {
			return 0
		}
		return sum / float64(count) * 1e6
	}
	stage := func(name string) float64 { return meanUS(s.obs.plane.StageTotal(name)) }
	st := Stats{
		Completed:          int(s.completed.Load()),
		MeanTotalMS:        stage(stageRequest) / 1e3,
		MeanQueueMS:        stage(stageQueue) / 1e3,
		CacheHits:          int(host.Hits),
		CacheMisses:        int(host.Misses),
		CacheEvicted:       int(host.Evictions),
		ScheduleDecisionUS: stage(stageSchedule),
		BatchOrganizeUS:    meanUS(s.obs.organize.Total()),
		SerializeUS:        stage(stageSerialize),
		HandoffUS:          stage(stageHandoff),
		WorkerQueueDepths:  s.runner.OutstandingCounts(),
	}
	if st.Completed > 0 {
		st.P95TotalMS = s.obs.plane.StageQuantile(stageRequest, 0.95) * 1e3
	}
	return st
}

// Health reports readiness with per-replica detail: whether the worker
// loops have started, each replica's lifecycle state / engine-loop
// liveness / queue depth, and whether admission control still has
// headroom. Status is "degraded" (HTTP 503) only when NO routable (Active)
// replica has a live engine loop — a single crashed replica in a larger
// fleet keeps serving on the survivors and stays "ok", with the outage
// visible in the per-replica entries. Saturated means every routable
// replica's outstanding queue is at the MaxQueue admission limit, i.e. the
// next submission would be rejected with ErrOverloaded.
func (s *Server) Health() Health {
	h := Health{
		Started:   s.started.Load(),
		Workers:   len(s.workers),
		MaxQueue:  s.cfg.MaxQueue,
		Completed: s.completed.Load(),
	}
	states := s.ctrl.States()
	depths, live := s.runner.OutstandingCounts(), s.runner.Alive()
	saturated := s.cfg.MaxQueue > 0
	routable, liveRoutable := 0, 0
	for i := range s.workers {
		d, alive := depths[i], live[i]
		h.QueueDepths = append(h.QueueDepths, d)
		h.WorkerAlive = append(h.WorkerAlive, alive)
		state := fleet.Active
		if i < len(states) {
			state = states[i]
		}
		h.Replicas = append(h.Replicas, ReplicaHealth{
			ID: i, State: state.String(), Alive: alive, QueueDepth: d,
		})
		if state != fleet.Active {
			continue
		}
		routable++
		if alive {
			liveRoutable++
		}
		if d < s.cfg.MaxQueue {
			saturated = false
		}
	}
	if routable == 0 {
		saturated = false
	}
	switch {
	case !h.Started:
		h.Status = "starting"
	case liveRoutable == 0:
		h.Status = "degraded"
	case saturated:
		h.Status = "overloaded"
	default:
		h.Status = "ok"
	}
	return h
}

// Fleet snapshots the fleet control plane for GET /v1/fleet: the router in
// effect and, per replica, its lifecycle state, engine-loop liveness,
// queue depth, the controller's affinity-tracked template set, and the
// templates actually staged replica-locally (when staging is enabled).
func (s *Server) Fleet() FleetResponse {
	resp := FleetResponse{
		Router:    s.ctrl.Router().String(),
		Autoscale: s.ctrl.AutoscaleEnabled(),
	}
	depths, live := s.runner.OutstandingCounts(), s.runner.Alive()
	for _, ri := range s.ctrl.Replicas() {
		fr := FleetReplica{ID: ri.ID, State: ri.State.String(), Templates: ri.Templates}
		if ri.ID < len(s.workers) {
			fr.Alive = live[ri.ID]
			fr.QueueDepth = depths[ri.ID]
			fr.StagedTemplates = s.workers[ri.ID].stagedTemplates()
		}
		resp.Replicas = append(resp.Replicas, fr)
	}
	return resp
}
