package serve

import (
	"time"

	"flashps/internal/batching"
	"flashps/internal/cache"
	"flashps/internal/obs"
)

// Span taxonomy: every request emits one span per pipeline stage it
// crosses (Fig 10-Bottom), all tied together by the request id and placed
// on the serving worker's trace track. The Runner's telemetry bridge
// (batching.Telemetry) emits the four coarse spans every driver shares —
// request, queue, inference, postprocess — when the request completes; the
// wall executor adds the fine ones below inside them as its stages run.
// docs/OBSERVABILITY.md has the table.
const (
	// stageRequest is the parent span, arrival → response complete.
	stageRequest = batching.StageRequest
	// stageQueue is arrival → admission into the running batch at a step
	// boundary.
	stageQueue = batching.StageQueue
	// stagePostprocess is denoising done → response complete: serialize,
	// handoff, latent decode + PNG encode.
	stagePostprocess = batching.StagePostprocess
	// stageSchedule is the routing decision (Algorithm 2, §6.6 overhead).
	stageSchedule = "schedule"
	// stagePreprocess is mask rasterization + session open on the CPU pool.
	stagePreprocess = "preprocess"
	// stageCacheLoad is the template-cache fetch inside preprocessing
	// (host hit or disk staging, §4.2).
	stageCacheLoad = "cache_load"
	// stageDenoiseStep is one denoising step of the running batch (§4.3).
	stageDenoiseStep = "denoise_step"
	// stageSerialize is latent serialization on the engine loop (§6.6).
	stageSerialize = "serialize"
	// stageHandoff is the engine → postprocess pool transfer (§6.6).
	stageHandoff = "handoff"
	// stageEvict marks a job removed at a stage/step boundary because its
	// deadline expired, its client canceled, or it was shed.
	stageEvict = "evict"
	// stageReplicaStage is the per-replica template staging copy inside
	// preprocessing: the deep copy + checksum of the shared cache entry
	// into the serving worker's local slot (fleet mode only, DESIGN.md §12).
	stageReplicaStage = "replica_stage"
)

// traceCat is the span category the live serving plane records under.
const traceCat = "serve"

// serveObs wraps the shared telemetry plane (internal/obs.Plane) with the
// live plane's wall-clock seam and its serve-only fault-tolerance
// counters. All core instruments — outcome/step counters, per-stage
// histograms and quantiles, batch occupancy, worker queue depths, SLO
// attainment, goodput — live on the plane and are fed by the Runner's
// telemetry bridge, so a live run and a replayed trace expose identical
// metric shapes. Hot-path updates are lock-free (atomics) or one short
// critical section (tracer ring).
type serveObs struct {
	plane *obs.Plane
	// wall is the clock the plane stamps with and the Runner runs on.
	wall *obs.WallClock
	// organize windows the batch-organize overhead for /v1/stats; it has no
	// span of its own.
	organize *obs.WindowQuantile

	// reg/tracer alias the plane's registry and tracer for the HTTP layer.
	reg    *obs.Registry
	tracer *obs.Tracer

	// Fault-tolerance counters: retried jobs after a worker crash,
	// requests degraded from cached to full compute, worker engine-loop
	// crash/restart cycles, and deadline-evicted requests.
	retries          *obs.Counter
	degraded         *obs.Counter
	workerRestarts   *obs.Counter
	deadlineExceeded *obs.Counter
	// stagings counts per-replica template staging copies (fleet mode).
	stagings *obs.Counter
}

func newServeObs(traceRing int) *serveObs {
	wall := &obs.WallClock{}
	plane := obs.NewPlane(obs.PlaneConfig{Clock: wall, TraceRing: traceRing})
	reg := plane.Reg
	return &serveObs{
		plane:    plane,
		wall:     wall,
		organize: obs.NewWindowQuantile(obs.DefaultQuantileWindow, 0),
		reg:      reg,
		tracer:   plane.Tracer,
		retries: reg.Counter("flashps_retries_total",
			"Jobs retried on an alternate replica after a worker crash"),
		degraded: reg.Counter("flashps_degraded_total",
			"Requests degraded from cached flashps mode to full compute"),
		workerRestarts: reg.Counter("flashps_worker_restarts_total",
			"Worker engine-loop crashes detected and restarted by the supervisor"),
		deadlineExceeded: reg.Counter("flashps_deadline_exceeded_total",
			"Requests whose deadline expired before completion"),
		stagings: reg.Counter("flashps_replica_stagings_total",
			"Per-replica template staging copies performed by the fleet's serving workers"),
	}
}

// bindStore registers scrape-time gauges over the tiered template
// store's live statistics. The host tier is always present; disk-tier
// gauges appear only when a spill dir is configured.
func (o *serveObs) bindStore(store *cache.TieredStore) {
	host := func() cache.TierStats { return store.Stats()[0] }
	o.reg.GaugeFunc("flashps_cache_hits",
		"Host activation-cache hits",
		func() float64 { return float64(host().Hits) })
	o.reg.GaugeFunc("flashps_cache_misses",
		"Host activation-cache misses",
		func() float64 { return float64(host().Misses) })
	o.reg.GaugeFunc("flashps_cache_evictions",
		"Host activation-cache evictions (demotions to the spill tier)",
		func() float64 { return float64(host().Evictions) })
	o.reg.GaugeFunc("flashps_cache_pinned_templates",
		"Templates pinned against eviction in the RAM tier",
		func() float64 { return float64(host().Pinned) })
	o.reg.GaugeVecFunc("flashps_cache_occupancy_bytes",
		"Per-tier cache occupancy in bytes (disk: physical bytes after dedup)",
		func() []obs.LabeledValue {
			return tierValues(store, func(t cache.TierStats) float64 { return float64(t.UsedBytes) })
		},
		"tier")
	o.reg.GaugeVecFunc("flashps_cache_capacity_bytes",
		"Per-tier cache capacity in bytes (0 = unbounded)",
		func() []obs.LabeledValue {
			return tierValues(store, func(t cache.TierStats) float64 { return float64(t.CapacityBytes) })
		},
		"tier")
	o.reg.GaugeVecFunc("flashps_cache_entries",
		"Templates stored per cache tier",
		func() []obs.LabeledValue {
			return tierValues(store, func(t cache.TierStats) float64 { return float64(t.Entries) })
		},
		"tier")
	if store.HasSpill() {
		o.reg.GaugeFunc("flashps_cache_disk_hits",
			"Template fetches staged back from the disk tier (§4.2)",
			func() float64 { return float64(store.DiskHits()) })
		o.reg.GaugeFunc("flashps_cache_dedup_ratio",
			"Spill-tier dedup ratio: logical bytes / physical bytes",
			func() float64 {
				for _, t := range store.Stats() {
					if t.Tier == "disk" {
						return t.DedupRatio
					}
				}
				return 1
			})
	}
}

// tierValues snapshots one per-tier statistic as labeled gauge samples.
func tierValues(store *cache.TieredStore, f func(cache.TierStats) float64) []obs.LabeledValue {
	stats := store.Stats()
	out := make([]obs.LabeledValue, len(stats))
	for i, t := range stats {
		out[i] = obs.LabeledValue{Values: []string{t.Tier}, V: f(t)}
	}
	return out
}

// span records one trace span, placing the wall timestamp on the plane's
// clock axis, and mirrors it into the stage histogram and quantile window,
// so the breakdown metrics and the trace never disagree. Causal identity
// is derived here — trace id from the request id, span id from the stage
// name — so every span of a request hangs under its root and the ids match
// what the clock-driven replay drivers would derive for the same request.
func (o *serveObs) span(req uint64, stage string, worker int, start time.Time, dur time.Duration, args obs.SpanArgs) {
	o.spanAt(req, stage, 0, worker, start, dur, args)
}

// spanAt is span for a stage a request runs more than once (its denoising
// steps): idx tells the repetitions' span ids apart.
func (o *serveObs) spanAt(req uint64, stage string, idx uint64, worker int, start time.Time, dur time.Duration, args obs.SpanArgs) {
	trace := obs.TraceID(req)
	root := obs.SpanID(trace, stageRequest, 0)
	parent := root
	if stage == stageCacheLoad || stage == stageReplicaStage {
		// Nested inside preprocessing: hang under that span, not the root.
		parent = obs.SpanID(trace, stagePreprocess, 0)
	}
	o.plane.RecordSpan(obs.Span{Request: req, Name: stage, Cat: traceCat, TID: worker,
		Start: o.wall.Seconds(start), Dur: dur.Seconds(), Args: args,
		Trace: trace, ID: obs.SpanID(trace, stage, idx), Parent: parent})
}

// cost records one structured cost sample into the plane's profile
// recorder (wall-clock measured durations; the calibration input).
func (o *serveObs) cost(s obs.CostSample) { o.plane.RecordCost(s) }
