package main

import (
	"encoding/json"
	"fmt"
	"time"

	"flashps/internal/serve"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

// spec is one workload: a traffic mix and the server shape it runs on.
// Rates and client counts are absolute constants, sized against the
// capacities in README.md, so a faster server sees the same load.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop is "open" (requests are sent on a schedule whatever the server
	// does, latency timed from each request's due time) or "closed"
	// (Clients callers each send their next request when the previous one
	// returns).
	Loop    string  `json:"loop"`
	RateRPS int     `json:"rate_rps,omitempty"`
	Clients int     `json:"clients,omitempty"`
	LimitMS float64 `json:"limit_ms"`

	// Templates are prepared during set-up and drawn Zipf(ZipfS).
	Templates int     `json:"templates"`
	ZipfS     float64 `json:"zipf_s,omitempty"`
	// Masks are drawn from Dist unless FixedMask is set.
	Dist      workload.MaskDist `json:"mask_dist"`
	FixedMask float64           `json:"fixed_mask,omitempty"`

	// DiskTier gives the server a CacheDir; RAMTemplates bounds its RAM
	// tier to that many templates (0: the 1 GiB default).
	DiskTier        bool   `json:"disk_tier,omitempty"`
	RAMTemplates    int    `json:"ram_templates,omitempty"`
	Router          string `json:"router,omitempty"`
	StagedTemplates int    `json:"staged_templates,omitempty"`

	// ChurnEdits > 0 makes each client iteration prepare a new template,
	// edit it this many times, and delete it.
	ChurnEdits int `json:"churn_edits,omitempty"`
}

var workloads = []spec{
	{
		Name: "prod_open",
		Why:  "Open loop at 40 rps (~45% of capacity), production masks, 4 hot templates: denoise compute is most of the latency, the cache always hits; a compute gain shows, a batching or cache change should not.",
		Loop: "open", RateRPS: 40, LimitMS: 100,
		Templates: 4, ZipfS: 1.1, Dist: workload.ProductionTrace,
	},
	{
		Name: "prod_closed",
		Why:  "Same mix, closed loop with 8 clients (4x workers), so batches and queues stay full: batching admit/interleave and queue wait dominate latency, and edits_per_s is the capacity figure.",
		Loop: "closed", Clients: 8, LimitMS: 250,
		Templates: 4, ZipfS: 1.1, Dist: workload.ProductionTrace,
	},
	{
		Name: "cache_thrash",
		Why:  "4 clients, 16 templates over a 4-template RAM tier with disk spill, affinity routing, 3% masks: cache promote/evict, fleet routing and fixed per-request overhead dominate; compute is at its minimum.",
		Loop: "closed", Clients: 4, LimitMS: 100,
		Templates: 16, ZipfS: 0.9, FixedMask: 0.03,
		DiskTier: true, RAMTemplates: 4, Router: "affinity", StagedTemplates: 4,
	},
	{
		Name: "template_churn",
		Why:  "2 clients loop prepare -> 3 large-mask edits -> delete, disk tier on: the write side (full prepare, PutCost, write-back, delete) and large masks, where a read-side or small-mask gain can regress.",
		Loop: "closed", Clients: 2, LimitMS: 250,
		Dist: workload.VITONTrace, DiskTier: true, ChurnEdits: 3,
	},
}

func workloadByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// request is one generated edit: the bytes POSTed to /v1/edits, the
// decoded form the output check recomputes from, and for open loops the
// offset from the start of the run at which it is due.
type request struct {
	Due  time.Duration
	API  serve.EditRequestAPI
	Body []byte
}

const (
	// scheduleLen edits are generated per run; a run that outlasts them
	// wraps around. It covers 200 s of prod_open and 25 s of the fastest
	// closed loop.
	scheduleLen = 8192
	// stratum is the block length over which mask ratios are balanced.
	stratum = 16
	// churnBase keeps template_churn's per-iteration ids apart from the
	// 1..Templates ids prepared at set-up.
	churnBase = 1000
)

// schedule generates the run's edits from the seed. The draws come from
// workload.Generate; two adjustments make a 20 s run repeat across seeds
// without changing the distributions it samples:
//   - mask ratios are dealt so that every block of 16 consecutive requests
//     holds one ratio from each sixteenth of the seed's sorted draws, so the
//     mean mask (and with it the mean service time) of any window is the
//     seed's overall mean rather than a 600-sample estimate of it;
//   - open-loop arrival times are warped piecewise-linearly so that every
//     RateRPS-th arrival lands on a whole second: a Poisson process
//     conditioned on its per-second count, bursty within the second, with no
//     ±4% swing in how many requests a run happens to offer.
func schedule(sp spec, seed uint64) ([]request, error) {
	rate := sp.RateRPS
	if rate == 0 {
		rate = 1
	}
	templates := sp.Templates
	if templates == 0 {
		templates = 1
	}
	raw, err := workload.Generate(workload.TraceConfig{
		N: scheduleLen, RPS: float64(rate), Dist: sp.Dist,
		Templates: templates, ZipfS: sp.ZipfS, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed ^ 0xBE7C4)
	ratios := make([]float64, len(raw))
	for i, r := range raw {
		ratios[i] = r.MaskRatio
	}
	if sp.FixedMask > 0 {
		for i := range ratios {
			ratios[i] = sp.FixedMask
		}
	} else {
		ratios = deal(ratios, rng)
	}
	out := make([]request, len(raw))
	for i, r := range raw {
		tpl := r.Template
		if sp.ChurnEdits > 0 {
			tpl = churnBase + uint64(i/sp.ChurnEdits)
		}
		api := serve.EditRequestAPI{
			TemplateID: tpl, Prompt: fmt.Sprintf("edit %d", rng.Intn(1<<20)), Seed: rng.Uint64(),
			Mask:        serve.MaskSpec{Type: "ratio", Ratio: ratios[i], Seed: rng.Uint64()},
			ReturnImage: true,
		}
		body, err := json.Marshal(api)
		if err != nil {
			return nil, err
		}
		out[i] = request{API: api, Body: body}
		if sp.Loop == "open" {
			out[i].Due = warp(raw, i, rate)
		}
	}
	return out, nil
}

// deal reorders xs into blocks of stratum values, one from each of the
// stratum quantile bands of xs, shuffled within the block.
func deal(xs []float64, rng *tensor.RNG) []float64 {
	bands := sorted(xs)
	per := len(xs) / stratum
	for b := 0; b < stratum; b++ {
		shuffle(bands[b*per:(b+1)*per], rng)
	}
	out := make([]float64, 0, len(xs))
	for j := 0; j < per; j++ {
		block := make([]float64, stratum)
		for b := range block {
			block[b] = bands[b*per+j]
		}
		shuffle(block, rng)
		out = append(out, block...)
	}
	return append(out, bands[per*stratum:]...)
}

func shuffle(xs []float64, rng *tensor.RNG) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// warp maps request i's generated arrival time onto the run's clock so
// that request g*rate-1 is due at exactly g seconds.
func warp(raw []workload.Request, i, rate int) time.Duration {
	g := i / rate
	lo := 0.0
	if g > 0 {
		lo = raw[g*rate-1].Arrival
	}
	span := 1.0 // the last, partial group keeps its generated spacing
	if last := (g+1)*rate - 1; last < len(raw) {
		span = raw[last].Arrival - lo
	}
	return time.Duration((float64(g) + (raw[i].Arrival-lo)/span) * float64(time.Second))
}

// prepareRequest is the POST /v1/templates body for template id under the
// run's seed; the output check rebuilds the same template from it.
func prepareRequest(seed, id uint64) serve.PrepareRequest {
	return serve.PrepareRequest{
		TemplateID: id, ImageSeed: seed*1000003 + id,
		Prompt: fmt.Sprintf("template %d", id),
	}
}
