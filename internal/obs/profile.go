package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// CostSample is one structured cost observation from an instrumented
// driver: a stage of the serving pipeline, the work attributed to it
// (mask-aware FLOPs, bytes moved, batch shape), and the measured duration
// in clock seconds. The live server records wall-clock samples; the
// simulation drivers record their modeled durations through the same path,
// so one fitting routine (perfmodel.FitFromTelemetry) ingests either.
type CostSample struct {
	// Stage names the pipeline stage ("denoise_step", "preprocess", ...).
	Stage string `json:"stage"`
	// T is the sample's clock timestamp (stamped by Plane.RecordCost).
	T float64 `json:"t"`
	// Units counts the (request, step) work units the sample covers: a live
	// per-session step is 1; a simulated batch of n advancing k aligned
	// steps is n·k; CPU stages are 1 per request.
	Units int `json:"units"`
	// Batch is the running-batch size at the time of the sample, when the
	// stage executes inside a batch (0 otherwise).
	Batch int `json:"batch,omitempty"`
	// MaskSum is the sum of the covered requests' mask ratios (a per-item
	// linear feature: masked FLOPs and cache-load bytes are both linear in
	// the ratio, so the batch aggregate is a sufficient statistic).
	MaskSum float64 `json:"mask_sum,omitempty"`
	// FLOPs is the mask-aware floating-point work the sample covers, from
	// the producer's model profile (0 when not a compute stage).
	FLOPs float64 `json:"flops,omitempty"`
	// Bytes is the data moved (cache loads, serialized latents; 0 if n/a).
	Bytes float64 `json:"bytes,omitempty"`
	// BlocksComputed/BlocksReused split a denoise step's transformer-block
	// executions between real forward passes and step-policy residual
	// reuse. FLOPs covers only the computed blocks; fitters exclude or
	// featureize samples with BlocksReused > 0 so the step law stays an
	// honest full-compute model.
	BlocksComputed int `json:"blocks_computed,omitempty"`
	BlocksReused   int `json:"blocks_reused,omitempty"`
	// Tier is the cache tier involved ("host", "disk"), when relevant.
	Tier string `json:"tier,omitempty"`
	// Seconds is the measured (or modeled) duration.
	Seconds float64 `json:"seconds"`
}

// Canonical cost-sample stage names. Every driver records these exact
// spellings so perfmodel.FitFromTelemetry can ingest any driver's
// profile.jsonl and the calibration metrics stay comparable across
// sim and real.
const (
	CostStageDenoiseStep = "denoise_step"
	CostStagePreprocess  = "preprocess"
	CostStagePostprocess = "postprocess"
	CostStageSchedule    = "schedule"
	CostStageSerialize   = "serialize"
	CostStageHandoff     = "handoff"
	CostStageOrganize    = "batch_organize"
	CostStageCacheLoad   = "cache_load"
	CostStageCacheStage  = "cache_stage"
	CostStageCacheSpill  = "cache_spill"
	// CostStageReplicaStage records the live fleet's per-replica template
	// staging copy (deep copy + checksum into the worker-local slot). It is
	// deliberately distinct from cache_stage so FitFromTelemetry's
	// spill-law fit never ingests replica-staging samples.
	CostStageReplicaStage = "replica_stage"
)

// DefaultProfileCap bounds the profile recorder's retained samples.
const DefaultProfileCap = 65536

// ProfileRecorder is a bounded, concurrency-safe recorder of cost samples.
// When full it drops the oldest samples (calibration wants the most recent
// operating point), counting what it evicted.
type ProfileRecorder struct {
	mu      sync.Mutex
	samples []CostSample
	start   int // ring start index
	count   int
	dropped uint64
	cap     int
}

// NewProfileRecorder builds a recorder retaining at most cap samples
// (<=0: DefaultProfileCap).
func NewProfileRecorder(cap int) *ProfileRecorder {
	if cap <= 0 {
		cap = DefaultProfileCap
	}
	return &ProfileRecorder{samples: make([]CostSample, 0, min(cap, 1024)), cap: cap}
}

// Record appends one sample, evicting the oldest when at capacity.
func (r *ProfileRecorder) Record(s CostSample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count < r.cap {
		if len(r.samples) < r.cap {
			r.samples = append(r.samples, s)
		} else {
			r.samples[(r.start+r.count)%r.cap] = s
		}
		r.count++
		return
	}
	r.samples[r.start] = s
	r.start = (r.start + 1) % r.cap
	r.dropped++
}

// Len returns the number of retained samples.
func (r *ProfileRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Dropped returns the number of samples evicted by the capacity bound.
func (r *ProfileRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Snapshot returns the retained samples oldest-first.
func (r *ProfileRecorder) Snapshot() []CostSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CostSample, r.count)
	for i := 0; i < r.count; i++ {
		out[i] = r.samples[(r.start+i)%len(r.samples)]
	}
	return out
}

// WriteJSONL renders the retained samples as JSON Lines, one sample per
// line, oldest first — the profile.jsonl artifact format.
func (r *ProfileRecorder) WriteJSONL(w io.Writer) error {
	return WriteCostJSONL(w, r.Snapshot())
}

// WriteCostJSONL writes samples as JSON Lines.
func WriteCostJSONL(w io.Writer, samples []CostSample) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range samples {
		if err := enc.Encode(&samples[i]); err != nil {
			return fmt.Errorf("obs: write profile sample %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadCostJSONL parses a JSON Lines profile stream, skipping blank lines
// and rejecting malformed records or negative durations.
func ReadCostJSONL(r io.Reader) ([]CostSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []CostSample
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var s CostSample
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("obs: profile line %d: %w", line, err)
		}
		if s.Stage == "" {
			return nil, fmt.Errorf("obs: profile line %d: missing stage", line)
		}
		if s.Seconds < 0 {
			return nil, fmt.Errorf("obs: profile line %d: negative duration %g", line, s.Seconds)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read profile: %w", err)
	}
	return out, nil
}
