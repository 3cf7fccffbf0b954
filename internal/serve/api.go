// Package serve is FlashPS's end-to-end serving plane running the real
// numeric engine: an HTTP frontend (the paper uses FastAPI; we use
// net/http), a mask-aware scheduler routing requests across worker
// replicas (Algorithm 2), and per-worker disaggregated continuous batching
// (§4.3) — preprocessing and postprocessing run on separate CPU worker
// pools so they never interrupt the engine loop, new requests join the
// running batch at denoising-step boundaries, and finished requests leave
// immediately.
//
// The package also measures the paper's §6.6 system overheads on the real
// Go path: scheduling decision time, per-step batch organization,
// latent serialization, and stage hand-off.
package serve

import (
	"encoding/json"
	"fmt"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/obs"
	"flashps/internal/tensor"
)

// MaskSpec describes an edit mask over the latent grid in API requests.
// Type is one of "rect", "ellipse", "ratio" (irregular blob of a target
// ratio, generated from Seed), or "full".
type MaskSpec struct {
	Type string
	// Rect/ellipse bounds in latent-grid coordinates, [Y0,Y1)×[X0,X1).
	Y0, X0, Y1, X1 int
	// Ratio for type "ratio".
	Ratio float64
	// Seed drives irregular mask generation.
	Seed uint64
	// PNG holds an encoded mask image for type "png" (white = edit
	// region), rasterized onto the latent grid.
	PNG []byte
}

// maskSpecJSON is the explicit wire form (all fields named).
type maskSpecJSON struct {
	Type  string  `json:"type"`
	Y0    int     `json:"y0"`
	X0    int     `json:"x0"`
	Y1    int     `json:"y1"`
	X1    int     `json:"x1"`
	Ratio float64 `json:"ratio"`
	Seed  uint64  `json:"seed"`
	PNG   []byte  `json:"png,omitempty"` // base64 on the wire
}

// MarshalJSON implements json.Marshaler.
func (m MaskSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(maskSpecJSON{
		Type: m.Type, Y0: m.Y0, X0: m.X0, Y1: m.Y1, X1: m.X1,
		Ratio: m.Ratio, Seed: m.Seed, PNG: m.PNG,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *MaskSpec) UnmarshalJSON(b []byte) error {
	var w maskSpecJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*m = MaskSpec{Type: w.Type, Y0: w.Y0, X0: w.X0, Y1: w.Y1, X1: w.X1,
		Ratio: w.Ratio, Seed: w.Seed, PNG: w.PNG}
	return nil
}

// Build rasterizes the spec onto an h×w latent grid.
func (m MaskSpec) Build(h, w int) (*mask.Mask, error) {
	switch m.Type {
	case "rect":
		if m.Y1 <= m.Y0 || m.X1 <= m.X0 {
			return nil, fmt.Errorf("serve: empty rect mask [%d,%d)×[%d,%d)", m.Y0, m.Y1, m.X0, m.X1)
		}
		return mask.Rect(h, w, m.Y0, m.X0, m.Y1, m.X1), nil
	case "ellipse":
		cy := float64(m.Y0+m.Y1) / 2
		cx := float64(m.X0+m.X1) / 2
		ry := float64(m.Y1-m.Y0) / 2
		rx := float64(m.X1-m.X0) / 2
		if ry <= 0 || rx <= 0 {
			return nil, fmt.Errorf("serve: empty ellipse mask")
		}
		return mask.Ellipse(h, w, cy, cx, ry, rx), nil
	case "ratio":
		if m.Ratio <= 0 || m.Ratio > 1 {
			return nil, fmt.Errorf("serve: invalid mask ratio %g", m.Ratio)
		}
		return mask.WithRatio(tensor.NewRNG(m.Seed^0x3A5C), h, w, m.Ratio), nil
	case "png":
		im, err := img.Decode(m.PNG)
		if err != nil {
			return nil, fmt.Errorf("serve: mask image: %w", err)
		}
		out := mask.FromImage(im, h, w, 0.5)
		if out.MaskedCount() == 0 {
			return nil, fmt.Errorf("serve: mask image selects no region")
		}
		return out, nil
	case "full":
		return mask.New(h, w).Invert(), nil
	default:
		return nil, fmt.Errorf("serve: unknown mask type %q", m.Type)
	}
}

// PrepareRequest registers and pre-computes an image template.
type PrepareRequest struct {
	TemplateID uint64 `json:"template_id"`
	// ImageSeed selects a synthetic template image when ImagePNG is empty.
	ImageSeed uint64 `json:"image_seed"`
	// ImagePNG uploads a real template image (PNG/JPEG, base64 on the
	// wire); it is resized to the engine's resolution.
	ImagePNG []byte `json:"image_png,omitempty"`
	Prompt   string `json:"prompt"`
}

// PrepareResponse reports the prepared cache. Reused is set when the
// template id was already prepared and the existing cache was kept
// (POST /v1/templates is idempotent on template_id; DELETE first to
// re-prepare with different content).
type PrepareResponse struct {
	TemplateID uint64  `json:"template_id"`
	CacheBytes int64   `json:"cache_bytes"`
	PrepareMS  float64 `json:"prepare_ms"`
	Reused     bool    `json:"reused,omitempty"`
}

// TemplateInfo is one entry of GET /v1/templates.
type TemplateInfo struct {
	TemplateID uint64 `json:"template_id"`
	Bytes      int64  `json:"bytes"`
	// DerivedBytes is the derived K/V held in RAM for the template: beside
	// its Bytes, rebuilt on demand and first to go under memory pressure;
	// or in place of its Y cache, when the host tier holds its derived form
	// (Bytes is then the form's latent trajectory).
	DerivedBytes int64 `json:"derived_bytes,omitempty"`
	// Tier is "host", "disk", or "host+disk".
	Tier string `json:"tier"`
	// Pinned marks templates excluded from eviction (v1.1).
	Pinned bool `json:"pinned,omitempty"`
	// Hits counts cache fetches served for this template (v1.1).
	Hits int64 `json:"hits,omitempty"`
	// LastUsedMS is the template's last fetch time as Unix milliseconds,
	// 0 if never fetched (v1.1).
	LastUsedMS int64 `json:"last_used_ms,omitempty"`
}

// TemplateListResponse is the GET /v1/templates body. Total counts all
// registered templates; Limit/Offset echo the pagination window applied
// (Limit 0 = no limit).
type TemplateListResponse struct {
	Templates []TemplateInfo `json:"templates"`
	Total     int            `json:"total"`
	Limit     int            `json:"limit,omitempty"`
	Offset    int            `json:"offset,omitempty"`
}

// PinResponse is the body of POST/DELETE /v1/templates/{id}/pin.
type PinResponse struct {
	TemplateID uint64 `json:"template_id"`
	Pinned     bool   `json:"pinned"`
}

// CacheTierStats is one tier's row in GET /v1/cache/stats.
type CacheTierStats struct {
	// Tier is "host" or "disk".
	Tier string `json:"tier"`
	// CapacityBytes is the tier's byte budget (0 = unbounded).
	CapacityBytes int64 `json:"capacity_bytes"`
	// UsedBytes is the tier's occupancy; for the disk tier this is
	// physical bytes after block dedup.
	UsedBytes int64 `json:"used_bytes"`
	// DerivedBytes is the share of the host tier's UsedBytes that is
	// derived K/V, and Derivations counts how often it was (re)built.
	DerivedBytes int64 `json:"derived_bytes,omitempty"`
	Derivations  int64 `json:"derivations,omitempty"`
	// LogicalBytes is the pre-dedup sum of template sizes (disk tier).
	LogicalBytes int64 `json:"logical_bytes,omitempty"`
	Entries      int   `json:"entries"`
	Pinned       int   `json:"pinned,omitempty"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses,omitempty"`
	Evictions    int64 `json:"evictions,omitempty"`
	// HitRate is Hits/(Hits+Misses), 0 when no lookups yet.
	HitRate float64 `json:"hit_rate"`
	// Blocks/SharedBlocks/DedupRatio describe content-addressed block
	// dedup on the disk tier.
	Blocks       int     `json:"blocks,omitempty"`
	SharedBlocks int     `json:"shared_blocks,omitempty"`
	DedupRatio   float64 `json:"dedup_ratio,omitempty"`
}

// CacheStatsResponse is the GET /v1/cache/stats body.
type CacheStatsResponse struct {
	Tiers []CacheTierStats `json:"tiers"`
}

// DeleteTemplateResponse is the DELETE /v1/templates/{id} body.
type DeleteTemplateResponse struct {
	TemplateID uint64 `json:"template_id"`
	Deleted    bool   `json:"deleted"`
}

// EditRequestAPI is one image-editing request.
type EditRequestAPI struct {
	TemplateID uint64   `json:"template_id"`
	Prompt     string   `json:"prompt"`
	Seed       uint64   `json:"seed"`
	Mask       MaskSpec `json:"mask"`
	// Mode selects the inference strategy: "" or "flashps" (mask-aware
	// cached), "full", "naive", "teacache".
	Mode string `json:"mode,omitempty"`
	// Policy selects an adaptive step-caching policy ("block", "layer",
	// "timestep", "combined", or "off"). Empty defers to the server's
	// SLO-class mapping, then its default. Composes with "" / "flashps" /
	// "full" modes only.
	Policy string `json:"policy,omitempty"`
	// ReturnImage includes the PNG (base64) in the response.
	ReturnImage bool `json:"return_image,omitempty"`
	// DeadlineMS, when > 0, bounds the request's end-to-end time: once
	// exceeded the job is evicted at the next stage/step boundary and the
	// client receives a deadline_exceeded error envelope.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// EditResponse reports one served edit.
type EditResponse struct {
	RequestID     uint64  `json:"request_id"`
	Worker        int     `json:"worker"`
	MaskRatio     float64 `json:"mask_ratio"`
	QueueMS       float64 `json:"queue_ms"`
	InferenceMS   float64 `json:"inference_ms"`
	TotalMS       float64 `json:"total_ms"`
	StepsComputed int     `json:"steps_computed"`
	ImagePNG      []byte  `json:"image_png,omitempty"`
	// Degraded reports that the request fell back from cached flashps mode
	// to full compute (e.g. a failed or slow cache load); DegradedReason
	// says why ("cache_load_failed", "cache_load_timeout").
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Retries counts how many times the job was re-executed on an
	// alternate replica after a worker crash.
	Retries int `json:"retries,omitempty"`
	// DeadlineMS echoes the request's deadline_ms.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Policy echoes the effective step-caching policy ("off" when none),
	// and ReusedBlockRatio reports the fraction of transformer-block
	// executions served from stale residuals under that policy.
	Policy           string  `json:"policy,omitempty"`
	ReusedBlockRatio float64 `json:"reused_block_ratio,omitempty"`
	// TraceID is the request's causal trace id (12 hex digits, v1.3);
	// pass it to /debug/traces?trace_id= or `flashps-trace -explain` to
	// pull this request's span tree.
	TraceID string `json:"trace_id,omitempty"`
}

// Health is the /healthz readiness report. Status is "ok", "starting"
// (worker loops not launched yet), "degraded" (no routable replica has a
// live engine loop — a partial outage in a larger fleet stays "ok" with
// the detail in Replicas), or "overloaded" (every routable replica's
// queue is at the admission limit); everything but "ok" is served with
// HTTP 503.
type Health struct {
	Status      string `json:"status"`
	Started     bool   `json:"started"`
	Workers     int    `json:"workers"`
	QueueDepths []int  `json:"queue_depths"`
	// WorkerAlive reports per-replica engine-loop liveness; a false entry
	// is a crashed loop that has not restarted yet.
	WorkerAlive []bool `json:"worker_alive"`
	// Replicas is the per-replica health detail: lifecycle state as the
	// fleet router sees it plus engine-loop liveness and queue depth.
	Replicas  []ReplicaHealth `json:"replicas"`
	MaxQueue  int             `json:"max_queue,omitempty"`
	Completed int64           `json:"completed"`
}

// ReplicaHealth is one replica's entry in the /healthz report.
type ReplicaHealth struct {
	ID int `json:"id"`
	// State is the fleet lifecycle state: "active", "draining", or "down".
	State string `json:"state"`
	// Alive is the engine-loop liveness (false between crash and restart).
	Alive      bool `json:"alive"`
	QueueDepth int  `json:"queue_depth"`
}

// FleetResponse is the GET /v1/fleet snapshot of the fleet control plane.
type FleetResponse struct {
	// Router is the routing policy in effect: "core", "least-loaded", or
	// "affinity".
	Router string `json:"router"`
	// Autoscale reports whether the SLO-driven autoscaler is armed.
	Autoscale bool           `json:"autoscale"`
	Replicas  []FleetReplica `json:"replicas"`
}

// FleetReplica is one replica's row in the GET /v1/fleet table.
type FleetReplica struct {
	ID         int    `json:"id"`
	State      string `json:"state"`
	Alive      bool   `json:"alive"`
	QueueDepth int    `json:"queue_depth"`
	// Templates is the controller's affinity-tracked template set for this
	// replica (what the affinity router scores against), sorted.
	Templates []uint64 `json:"templates,omitempty"`
	// StagedTemplates is the set actually staged replica-locally, sorted
	// (Config.StagedTemplates > 0 only).
	StagedTemplates []uint64 `json:"staged_templates,omitempty"`
}

// AlertsResponse is the GET /v1/alerts body: one burn-rate status row
// per SLO class (v1.3). Worst is the most severe state across rows
// ("ok", "warning", or "page").
type AlertsResponse struct {
	Worst  string            `json:"worst"`
	Alerts []obs.AlertStatus `json:"alerts"`
}

// Stats is the serving plane's live statistics snapshot.
type Stats struct {
	Completed    int     `json:"completed"`
	MeanTotalMS  float64 `json:"mean_total_ms"`
	P95TotalMS   float64 `json:"p95_total_ms"`
	MeanQueueMS  float64 `json:"mean_queue_ms"`
	CacheHits    int     `json:"cache_hits"`
	CacheMisses  int     `json:"cache_misses"`
	CacheEvicted int     `json:"cache_evicted"`
	// §6.6 overheads, measured on the live path (microseconds).
	ScheduleDecisionUS float64 `json:"schedule_decision_us"`
	BatchOrganizeUS    float64 `json:"batch_organize_us"`
	SerializeUS        float64 `json:"serialize_us"`
	HandoffUS          float64 `json:"handoff_us"`
	WorkerQueueDepths  []int   `json:"worker_queue_depths"`
}
