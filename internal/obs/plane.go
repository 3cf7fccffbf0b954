package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Plane is the full telemetry plane shared by every driver of the batching
// core: the live serving plane (internal/serve), the discrete-event
// simulator (internal/cluster), and the differential-replay real driver
// (internal/replay) all emit through one Plane, so a replayed trace and a
// live run produce the same Prometheus exposition, Chrome traces, profile
// and flight snapshots — differing only in whether timestamps are virtual
// or wall seconds.
//
// The Plane bundles the registry and tracer with the instruments the
// paper's distributional claims need: windowed per-stage quantiles
// (P50/P95/P99), an SLO tracker with attainment and goodput, per-cache-
// tier hit/miss/byte accounting, and queue-depth / batch-occupancy
// instruments. All hot-path methods are concurrency-safe.
type Plane struct {
	Reg     *Registry
	Tracer  *Tracer
	SLO     *SLOTracker
	Profile *ProfileRecorder
	Flight  *FlightRecorder

	mu         sync.Mutex
	clock      Clock
	epoch      float64
	calib      CalibrationInfo
	flightSink func(FlightSnapshot)

	requests     *CounterVec
	steps        *Counter
	blocksComp   *Counter
	blocksRe     *Counter
	stage        *HistogramVec
	stageQ       *QuantileVec
	batchOcc     *Histogram
	queueDepth   *GaugeVec
	peakQueue    *GaugeVec
	decisions    *CounterVec
	sloVec       *CounterVec
	tierOps      *CounterVec
	tierBytes    *CounterVec
	calibSamp    *CounterVec
	calibResid   *GaugeVec
	fleet        *FleetMetrics
	alerts       *Alerts
	alertState   *GaugeVec
	alertBurn    *GaugeVec
	alertTrans   *CounterVec
	traceDropped *Counter

	batchSizeSum atomic.Uint64
	batchSteps   atomic.Uint64
}

// PlaneConfig parameterizes a Plane. The zero value is a working live
// configuration (wall clock, default windows and ring sizes).
type PlaneConfig struct {
	// Clock stamps spans, cost samples, and rate denominators; nil uses a
	// fresh WallClock. Simulation drivers that build their clock inside
	// Run rebind later via BindClock.
	Clock Clock
	// TraceRing sizes the span ring (0: DefaultTraceRing).
	TraceRing int
	// SLOClasses are the deadline classes (nil: DefaultSLOClasses).
	SLOClasses []SLOClass
	// QuantileWindow/QuantileCap size the per-stage windowed quantile
	// estimators (0: DefaultQuantileWindow / DefaultQuantileCap).
	QuantileWindow float64
	QuantileCap    int
	// ProfileCap bounds the retained calibration cost samples
	// (0: DefaultProfileCap).
	ProfileCap int
	// Alerts parameterizes the SLO burn-rate evaluator (zero value: the
	// 60s/1800s windows over a 99% objective).
	Alerts AlertConfig
	// FlightRing sizes the flight recorder (0: DefaultFlightRing).
	FlightRing int
}

// Quantiles the plane exposes per stage, ascending.
var planeQuantiles = []float64{0.5, 0.95, 0.99}

// NewPlane builds a Plane and registers the shared instrument families.
func NewPlane(cfg PlaneConfig) *Plane {
	clock := cfg.Clock
	if clock == nil {
		clock = &WallClock{}
	}
	qw := cfg.QuantileWindow
	if qw <= 0 {
		qw = DefaultQuantileWindow
	}
	classes := cfg.SLOClasses
	if len(classes) == 0 {
		classes = DefaultSLOClasses
	}
	reg := NewRegistry()
	p := &Plane{
		Reg:     reg,
		Tracer:  NewTracer(cfg.TraceRing),
		SLO:     NewSLOTracker(classes),
		Profile: NewProfileRecorder(cfg.ProfileCap),
		Flight:  NewFlightRecorder(cfg.FlightRing),
		clock:   clock,
		epoch:   clock.Now(),
		stageQ:  NewQuantileVec(qw, cfg.QuantileCap),
		alerts:  NewAlerts(cfg.Alerts, classes),
	}
	p.requests = reg.CounterVec("flashps_requests_total",
		"Edit requests by terminal outcome", "outcome")
	p.steps = reg.Counter("flashps_denoise_steps_total",
		"Denoising steps executed across all workers")
	p.blocksComp = reg.Counter("flashps_diffusion_blocks_computed_total",
		"Transformer-block forward passes executed across all denoising steps")
	p.blocksRe = reg.Counter("flashps_diffusion_blocks_reused_total",
		"Transformer-block executions served from cached residuals by an adaptive step policy")
	p.stage = reg.HistogramVec("flashps_request_stage_seconds",
		"Per-stage request latency (Fig 10 pipeline breakdown)",
		LatencyBuckets, "stage")
	p.batchOcc = reg.Histogram("flashps_batch_occupancy",
		"Running-batch size at each executed denoising step",
		[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32})
	p.queueDepth = reg.GaugeVec("flashps_worker_queue_depth",
		"Ready requests queued at each worker", "worker")
	p.peakQueue = reg.GaugeVec("flashps_worker_peak_queue",
		"Peak ready-queue depth per worker", "worker")
	p.decisions = reg.CounterVec("flashps_sched_decisions_total",
		"Scheduling decisions by kind (place/admit/shed/reject)", "kind")
	p.sloVec = reg.CounterVec("flashps_slo_requests_total",
		"Completed requests by deadline class and attainment result", "class", "result")
	p.tierOps = reg.CounterVec("flashps_cache_tier_ops_total",
		"Cache-tier operations by tier and op (§4.2)", "tier", "op")
	p.tierBytes = reg.CounterVec("flashps_cache_tier_bytes_total",
		"Cache-tier bytes moved by tier and op (§4.2)", "tier", "op")
	p.calibSamp = reg.CounterVec("flashps_calibration_samples_total",
		"Calibration cost samples recorded, by pipeline stage", "stage")
	p.calibResid = reg.GaugeVec("flashps_calibration_fit_residual",
		"Median absolute relative residual of the fitted cost model, by stage", "stage")
	p.alertState = reg.GaugeVec("flashps_alert_state",
		"SLO burn-rate alert state per deadline class (0 ok, 1 warning, 2 page)", "class")
	p.alertBurn = reg.GaugeVec("flashps_alert_burn_rate",
		"SLO error-budget burn rate per deadline class and window (fast/slow)", "class", "window")
	p.alertTrans = reg.CounterVec("flashps_alert_transitions_total",
		"Alert state transitions per deadline class and entered state", "class", "state")
	p.traceDropped = reg.Counter("flashps_trace_spans_dropped_total",
		"Spans evicted from the bounded trace ring since process start")
	p.Tracer.OnDrop(p.traceDropped.Inc)
	// Seed every class's state and burn gauges so the exposition carries
	// the alert families from the first scrape — and deterministically, so
	// the differential replay's byte comparison covers them.
	for _, c := range classes {
		p.alertState.With(c.Name).Set(0)
		p.alertBurn.With(c.Name, "fast").Set(0)
		p.alertBurn.With(c.Name, "slow").Set(0)
	}

	reg.GaugeFunc("flashps_slo_attainment",
		"Fraction of completed requests that met their class deadline",
		p.SLO.Attainment)
	reg.GaugeFunc("flashps_goodput_rps",
		"SLO-attained completed requests per clock second since epoch",
		func() float64 { a, _ := p.SLO.Counts(); return p.rate(float64(a)) })
	reg.GaugeFunc("flashps_throughput_rps",
		"Completed requests per clock second since epoch",
		func() float64 { _, t := p.SLO.Counts(); return p.rate(float64(t)) })
	reg.GaugeFunc("flashps_mean_batch_size",
		"Mean running-batch size over executed denoising steps (§4.3)",
		p.MeanBatchSize)
	reg.GaugeFunc("flashps_trace_spans_total",
		"Spans recorded into the trace ring (including dropped)",
		func() float64 { return float64(p.Tracer.Total()) })
	reg.GaugeVecFunc("flashps_request_stage_quantile_seconds",
		"Windowed per-stage latency quantiles (P50/P95/P99)",
		p.stageQuantiles, "stage", "quantile")
	reg.GaugeFunc("flashps_calibration_model_age_seconds",
		"Clock seconds since the active cost model was fitted (-1: never fitted)",
		func() float64 {
			p.mu.Lock()
			set, at := p.calib.set, p.calib.FittedAt
			p.mu.Unlock()
			if !set {
				return -1
			}
			age := p.Now() - at
			if age < 0 {
				age = 0
			}
			return age
		})
	reg.GaugeFunc("flashps_calibration_profile_dropped",
		"Calibration cost samples evicted by the recorder's capacity bound",
		func() float64 { return float64(p.Profile.Dropped()) })
	return p
}

// BindClock rebinds the plane to a driver-owned clock and resets the rate
// epoch to the clock's current time. The simulation harnesses call it
// right after constructing their virtual clock.
func (p *Plane) BindClock(c Clock) {
	p.mu.Lock()
	p.clock = c
	p.epoch = c.Now()
	p.mu.Unlock()
}

// Now returns the bound clock's current time.
func (p *Plane) Now() float64 {
	p.mu.Lock()
	c := p.clock
	p.mu.Unlock()
	return c.Now()
}

// rate divides a count by the elapsed clock time since epoch (0 before any
// time has passed).
func (p *Plane) rate(count float64) float64 {
	p.mu.Lock()
	c, epoch := p.clock, p.epoch
	p.mu.Unlock()
	elapsed := c.Now() - epoch
	if elapsed <= 0 {
		return 0
	}
	return count / elapsed
}

// stageQuantiles renders the windowed per-stage quantiles for the
// GaugeVecFunc, stages alphabetical and quantiles ascending.
func (p *Plane) stageQuantiles() []LabeledValue {
	now := p.Now()
	var out []LabeledValue
	for _, stage := range p.stageQ.Keys() {
		vals := p.stageQ.With(stage).Values(now)
		if len(vals) == 0 {
			continue
		}
		for _, q := range planeQuantiles {
			out = append(out, LabeledValue{
				Values: []string{stage, strconv.FormatFloat(q, 'g', -1, 64)},
				V:      quantileOf(vals, q),
			})
		}
	}
	return out
}

// StageTotal returns a stage's all-time span count and summed seconds.
func (p *Plane) StageTotal(stage string) (count uint64, seconds float64) {
	return p.stageQ.With(stage).Total()
}

// StageQuantile returns a stage's q-quantile over the quantile window, in
// seconds (NaN when the window holds no span of the stage).
func (p *Plane) StageQuantile(stage string, q float64) float64 {
	return p.stageQ.With(stage).Quantile(p.Now(), q)
}

// SpanCausal records one stage span (clock seconds) with its causal
// identity: the request's trace id, this span's id within it, and the
// parent span it hangs under (0 for the request root). It is RecordSpan
// with the annotations as a map.
func (p *Plane) SpanCausal(req uint64, stage, cat string, tid int, start, dur float64, trace, id, parent uint64, args map[string]float64) {
	p.RecordSpan(Span{Request: req, Name: stage, Cat: cat, TID: tid,
		Start: start, Dur: dur, Args: ArgsFromMap(args), Trace: trace, ID: id, Parent: parent})
}

// RecordSpan records s in the trace ring, the stage histogram, and the
// stage quantile window, so the trace, the histogram, and the quantiles
// never disagree. It is the form for hot paths: with annotations built
// inline (Arg) nothing allocates.
func (p *Plane) RecordSpan(s Span) {
	if s.Dur < 0 {
		s.Dur = 0
	}
	p.Tracer.Record(s)
	p.stage.With(s.Name).Observe(s.Dur)
	p.stageQ.With(s.Name).Observe(s.Start+s.Dur, s.Dur)
}

// RequestOutcome counts one terminal request outcome ("ok", "error",
// "rejected", "deadline", "canceled", "shed").
func (p *Plane) RequestOutcome(outcome string) { p.requests.With(outcome).Inc() }

// AddSteps counts n per-request denoising steps at once (a batch of n
// requests advancing one step executes n request-steps).
func (p *Plane) AddSteps(n int) { p.steps.Add(float64(n)) }

// ObserveBatch records the running-batch size of one executed step into
// the occupancy histogram and the mean-batch accumulators.
func (p *Plane) ObserveBatch(size int) {
	p.batchOcc.Observe(float64(size))
	p.batchSizeSum.Add(uint64(size))
	p.batchSteps.Add(1)
}

// StepsTotal returns the denoise-step counter's current value (per-request
// steps, so a batch of n advancing one step counted n).
func (p *Plane) StepsTotal() float64 { return p.steps.Value() }

// MeanBatchSize returns the mean running-batch size over executed steps.
func (p *Plane) MeanBatchSize() float64 {
	steps := p.batchSteps.Load()
	if steps == 0 {
		return 0
	}
	return float64(p.batchSizeSum.Load()) / float64(steps)
}

// SetQueueDepth publishes one worker's ready-queue depth, tracking its
// peak.
func (p *Plane) SetQueueDepth(worker, depth int) {
	l := strconv.Itoa(worker)
	d := float64(depth)
	p.queueDepth.With(l).Set(d)
	if peak := p.peakQueue.With(l); d > peak.Value() {
		peak.Set(d)
	}
}

// Decision counts one scheduling decision by kind and drops it into the
// flight recorder, so a snapshot shows the recent decision stream beside
// the incidents.
func (p *Plane) Decision(kind string) {
	p.decisions.With(kind).Inc()
	p.Flight.Record(FlightEvent{T: p.Now(), Kind: "decision", Replica: -1, Detail: kind})
}

// ObserveSLO classifies one completed request (by mask ratio) against its
// deadline class and records attainment; it also feeds the burn-rate
// alert evaluator at the completion event, which keeps alerting
// deterministic (and the virtual event queue finite) under the simulation
// drivers.
func (p *Plane) ObserveSLO(ratio, latency float64) (SLOClass, bool) {
	c, ok := p.SLO.Observe(ratio, latency)
	result := "attained"
	if !ok {
		result = "missed"
	}
	p.sloVec.With(c.Name, result).Inc()
	now := p.Now()
	st, transitioned := p.alerts.Observe(c.Name, ok, now)
	p.publishAlert(st)
	if transitioned {
		p.alertTrans.With(c.Name, st.State.String()).Inc()
		p.Flight.Record(FlightEvent{T: now, Kind: "alert", Replica: -1,
			Detail: c.Name + " → " + st.State.String()})
		if st.State == AlertPage {
			p.TripFlight("alert_page:" + c.Name)
		}
	}
	return c, ok
}

// publishAlert mirrors one class's evaluated status into the alert gauges.
func (p *Plane) publishAlert(st AlertStatus) {
	p.alertState.With(st.Class).Set(float64(st.State))
	p.alertBurn.With(st.Class, "fast").Set(st.BurnFast)
	p.alertBurn.With(st.Class, "slow").Set(st.BurnSlow)
}

// Alerts returns every deadline class's current burn-rate alert status.
func (p *Plane) Alerts() []AlertStatus {
	return p.alerts.Snapshot(p.Now())
}

// AlertMax returns the most severe current alert state across classes.
func (p *Plane) AlertMax() AlertState {
	worst := AlertOK
	for _, st := range p.Alerts() {
		if st.State > worst {
			worst = st.State
		}
	}
	return worst
}

// RecordFlight drops one structured event into the flight recorder,
// stamped with the plane clock. Pass replica -1 when no replica is
// involved and request 0 when no request is; a nonzero request also
// links the event to its trace id.
func (p *Plane) RecordFlight(kind string, request uint64, replica int, detail string) {
	ev := FlightEvent{T: p.Now(), Kind: kind, Request: request, Replica: replica, Detail: detail}
	if request != 0 {
		ev.Trace = FormatTraceID(TraceID(request))
	}
	p.Flight.Record(ev)
}

// FlightSnapshot assembles a flight-recorder dump: alert states, the
// event ring, and the tracer's retained spans, stamped with the plane
// clock and the given reason.
func (p *Plane) FlightSnapshot(reason string) FlightSnapshot {
	now := p.Now()
	return FlightSnapshot{
		Reason:       reason,
		ClockSeconds: now,
		Alerts:       p.alerts.Snapshot(now),
		Events:       p.Flight.Snapshot(),
		Spans:        p.Tracer.Snapshot(),
	}
}

// SetFlightSink registers the callback that receives flight snapshots
// when TripFlight fires (the live server writes flightrecorder.json from
// it). The sim drivers never set one, so tripping is a no-op there and
// replay stays deterministic.
func (p *Plane) SetFlightSink(fn func(FlightSnapshot)) {
	p.mu.Lock()
	p.flightSink = fn
	p.mu.Unlock()
}

// TripFlight pushes a snapshot with the given reason to the registered
// sink — called when an alert pages or a fault rule trips.
func (p *Plane) TripFlight(reason string) {
	p.mu.Lock()
	sink := p.flightSink
	p.mu.Unlock()
	if sink != nil {
		sink(p.FlightSnapshot(reason))
	}
}

// CacheTier accumulates tier accounting: ops operations of kind op on the
// named tier ("host", "disk"), moving bytes bytes.
func (p *Plane) CacheTier(tier, op string, ops uint64, bytes float64) {
	p.tierOps.With(tier, op).Add(float64(ops))
	if bytes > 0 {
		p.tierBytes.With(tier, op).Add(bytes)
	}
}

// Tick re-evaluates the alert windows at the current clock time so states
// decay when traffic stops; the live serving plane drives it from a wall
// ticker. The sim drivers never call it — they evaluate at completion
// events instead, which keeps replay deterministic.
func (p *Plane) Tick() {
	for _, st := range p.alerts.Evaluate(p.Now()) {
		p.publishAlert(st)
	}
}

// RecordCost stamps a calibration cost sample with the plane clock and
// records it into the profile recorder and the calibration sample counter.
// Every driver (live server, simulator, replay) feeds the same path, so
// perfmodel.FitFromTelemetry ingests any driver's profile.jsonl.
func (p *Plane) RecordCost(s CostSample) {
	s.T = p.Now()
	p.Profile.Record(s)
	p.calibSamp.With(s.Stage).Inc()
	// Denoise-step samples carry the computed/reused block split; mirroring
	// it into the counters here keeps every driver (live serve, simulator,
	// replay) exposing the same block-reuse metrics from one code path.
	if s.BlocksComputed > 0 || s.BlocksReused > 0 {
		p.blocksComp.Add(float64(s.BlocksComputed))
		p.blocksRe.Add(float64(s.BlocksReused))
	}
}

// StageFitInfo is one stage's fit quality for the
// flashps_calibration_fit_residual gauges.
type StageFitInfo struct {
	Stage    string
	Residual float64 // median absolute relative residual
}

// CalibrationInfo describes the cost model currently loaded into the
// driver behind this plane.
type CalibrationInfo struct {
	FittedAt float64 // plane-clock seconds at fit time
	Fits     []StageFitInfo

	set bool
}

// SetCalibration publishes the active fitted cost model: the staleness
// gauge starts aging from info.FittedAt and the per-stage residual gauges
// take the fit's values.
func (p *Plane) SetCalibration(info CalibrationInfo) {
	info.set = true
	p.mu.Lock()
	p.calib = info
	p.mu.Unlock()
	for _, f := range info.Fits {
		p.calibResid.With(f.Stage).Set(f.Residual)
	}
}

// Artifact filenames WriteArtifacts produces.
const (
	ArtifactMetrics        = "metrics.prom"
	ArtifactTrace          = "trace.json"
	ArtifactProfile        = "profile.jsonl"
	ArtifactFlightRecorder = "flightrecorder.json"
)

// WriteArtifacts dumps the plane's full output into dir (created if
// missing) as four files — the Prometheus exposition (metrics.prom), the
// Chrome trace JSON (trace.json), the calibration cost samples
// (profile.jsonl) and a flight snapshot (flightrecorder.json) — returning
// the first error.
func (p *Plane) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(*strings.Builder) error) error {
		var b strings.Builder
		if err := fn(&b); err != nil {
			return fmt.Errorf("obs: render %s: %w", name, err)
		}
		return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
	}
	if err := write(ArtifactMetrics, func(b *strings.Builder) error {
		return p.Reg.WritePrometheus(b)
	}); err != nil {
		return err
	}
	if err := write(ArtifactTrace, func(b *strings.Builder) error {
		return p.Tracer.WriteChromeJSON(b)
	}); err != nil {
		return err
	}
	if err := write(ArtifactProfile, func(b *strings.Builder) error {
		return p.Profile.WriteJSONL(b)
	}); err != nil {
		return err
	}
	return write(ArtifactFlightRecorder, func(b *strings.Builder) error {
		return p.FlightSnapshot("artifact").WriteJSON(b)
	})
}
