package batching

import "flashps/internal/obs"

// Stage names the Runner's telemetry emits for every completed request,
// the same four under every driver, so the simulator, the
// differential-replay real driver and the live serving plane populate
// identical histogram/quantile families. The serving plane's executor adds
// its finer-grained stages inside them (see internal/serve and
// docs/OBSERVABILITY.md).
const (
	// StageQueue is arrival → batch admission (it spans scheduling,
	// preprocessing and cache staging as well as the ready-queue wait).
	StageQueue = "queue"
	// StageInference is batch admission → last denoising step.
	StageInference = "inference"
	// StagePostprocess is denoising done → image delivered.
	StagePostprocess = "postprocess"
	// StageRequest is the end-to-end parent span.
	StageRequest = "request"
)

// TraceCat is the span category the Runner's telemetry uses under every
// driver, so the replay drivers' Chrome traces compare equal.
const TraceCat = "core"

// Telemetry bridges the Runner's Observer seam and the Core's decision
// stream into an obs.Plane: queue depths and batch occupancy flow through
// as they change, and every completed request emits its virtual-time span
// breakdown plus an SLO observation. Because the bridge is driven only by
// Runner/Core events — which the differential-replay test proves identical
// between the simulator and the real-engine driver — two drivers of the
// same trace fill their planes identically, byte for byte.
//
// A nil *Telemetry (NewTelemetry(nil)) is a valid Observer that does
// nothing.
type Telemetry struct {
	plane *obs.Plane
}

// NewTelemetry wraps a plane (nil plane → nil bridge, which is free).
func NewTelemetry(p *obs.Plane) *Telemetry {
	if p == nil {
		return nil
	}
	return &Telemetry{plane: p}
}

// DecisionSink returns the hook to install via DecisionLog.SetSink, or nil
// for a nil bridge.
func (t *Telemetry) DecisionSink() func(Decision) {
	if t == nil {
		return nil
	}
	return func(d Decision) { t.plane.Decision(d.Kind.String()) }
}

// QueueDepth implements Observer: the virtual-time drivers publish the
// ready queue as flashps_worker_queue_depth.
func (t *Telemetry) QueueDepth(worker, depth int) {
	if t != nil {
		t.plane.SetQueueDepth(worker, depth)
	}
}

// Outstanding implements Observer. The bridge publishes nothing for it;
// the serving plane, whose flashps_worker_queue_depth has always been the
// outstanding count its saturation runbook reads, publishes this instead
// of QueueDepth (internal/serve).
func (t *Telemetry) Outstanding(worker, n int) {}

// BatchStep implements Observer. A batch of n requests advancing one step
// executes n request-steps, matching the live plane's per-request counting.
func (t *Telemetry) BatchStep(size int) {
	if t == nil {
		return
	}
	t.plane.ObserveBatch(size)
	t.plane.AddSteps(size)
}

// RequestDone implements Observer: it counts the terminal outcome and, for
// a completed request, emits the span breakdown in clock seconds — as a
// causal tree under the request's deterministic trace id, so both replay
// drivers derive identical ids from identical request ids — and the SLO
// observation.
func (t *Telemetry) RequestDone(s RequestStat) {
	if t == nil {
		return
	}
	t.plane.RequestOutcome(s.Label())
	if s.Outcome != Completed {
		return
	}
	req := uint64(s.ID)
	trace := obs.TraceID(req)
	root := obs.SpanID(trace, StageRequest, 0)
	span := func(stage string, start, dur float64, id, parent uint64, args obs.SpanArgs) {
		t.plane.RecordSpan(obs.Span{Request: req, Name: stage, Cat: TraceCat, TID: s.Worker,
			Start: start, Dur: dur, Args: args, Trace: trace, ID: id, Parent: parent})
	}
	span(StageQueue, s.Arrival, s.QueueTime(), obs.SpanID(trace, StageQueue, 0), root, obs.SpanArgs{})
	span(StageInference, s.Admit, s.InferenceTime(), obs.SpanID(trace, StageInference, 0), root,
		obs.Arg("interruptions", float64(s.Interruptions)))
	span(StagePostprocess, s.Finish, s.Complete-s.Finish, obs.SpanID(trace, StagePostprocess, 0), root, obs.SpanArgs{})
	span(StageRequest, s.Arrival, s.Latency(), root, 0, obs.Arg("mask_ratio", s.MaskRatio))
	t.plane.ObserveSLO(s.MaskRatio, s.Latency())
}
