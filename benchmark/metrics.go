package main

import "fmt"

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; TestBenchmarkJSONMatchesCode keeps
// the two from drifting apart.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression. Every one
	// is at the PR driver's cap of 25%: host-normalised (host.go), ten runs
	// spread 2-10% (README.md, "Noise study"), but the driver rejects a
	// benchmark whose spread exceeds its bound and has seen this shared host
	// noisier than the study did.
	Bound float64
}

var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"edit_p50_ms", "ms", "lower", 0.25},
	{"edit_mean_ms", "ms", "lower", 0.25},
	{"edits_per_s", "1/s", "higher", 0.25},
	{"goodput_per_s", "1/s", "higher", 0.25},
	{"prepare_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerDefs are the per-layer metrics; the prefix before the first dot
// is the package the figure belongs to (loadgen and trace are the
// benchmark's own).
var perLayerDefs = []metricDef{
	{Name: "loadgen.host_factor", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.offered_rps", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_max_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_end", Unit: "count", Better: "lower"},
	{Name: "loadgen.edit_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.edit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.edit_tail_samples", Unit: "count", Better: "higher"},

	{Name: "serve.decode_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.handoff_us", Unit: "us", Better: "lower"},
	{Name: "serve.schedule_decision_us", Unit: "us", Better: "lower"},
	{Name: "serve.degraded", Unit: "count", Better: "lower"},
	{Name: "serve.retried", Unit: "count", Better: "lower"},

	{Name: "batching.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batching.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "batching.inference_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "batching.mean_batch_size", Unit: "count", Better: "higher"},
	{Name: "batching.decisions", Unit: "count", Better: "higher"},
	{Name: "batching.place_ns", Unit: "ns", Better: "lower"},
	{Name: "batching.admit_ns", Unit: "ns", Better: "lower"},

	{Name: "fleet.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.route_ns", Unit: "ns", Better: "lower"},
	{Name: "fleet.affinity_hit_share", Unit: "share", Better: "higher"},
	{Name: "fleet.stagings", Unit: "count", Better: "lower"},

	{Name: "cache.ram_hit_share", Unit: "share", Better: "higher"},
	{Name: "cache.disk_promotions", Unit: "count", Better: "lower"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.dedup_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.template_bytes", Unit: "bytes", Better: "lower"},
	{Name: "cache.get_ram_us", Unit: "us", Better: "lower"},
	{Name: "cache.get_disk_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.put_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.serialize_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.deserialize_ms", Unit: "ms", Better: "lower"},

	{Name: "diffusion.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "diffusion.begin_us", Unit: "us", Better: "lower"},
	{Name: "diffusion.step_ms_m05", Unit: "ms", Better: "lower"},
	{Name: "diffusion.step_ms_m20", Unit: "ms", Better: "lower"},
	{Name: "diffusion.step_ms_m50", Unit: "ms", Better: "lower"},
	{Name: "diffusion.step_ms_full", Unit: "ms", Better: "lower"},
	{Name: "diffusion.result_us", Unit: "us", Better: "lower"},
	{Name: "diffusion.step_allocs", Unit: "count", Better: "lower"},
	{Name: "diffusion.steps_total", Unit: "count", Better: "higher"},
	{Name: "diffusion.steps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diffusion.masked_speedup_m20", Unit: "ratio", Better: "higher"},

	{Name: "model.block_full_us", Unit: "us", Better: "lower"},
	{Name: "model.block_masked_m20_us", Unit: "us", Better: "lower"},
	{Name: "model.block_full_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "model.block_masked_m20_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "model.forward_step_ms", Unit: "ms", Better: "lower"},

	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.attention_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.softmax_ns_row", Unit: "ns", Better: "lower"},
	{Name: "tensor.layernorm_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.gelu_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.gather_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.scatter_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "img.encode_png_us", Unit: "us", Better: "lower"},
	{Name: "mask.build_us", Unit: "us", Better: "lower"},

	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_allocs", Unit: "count", Better: "lower"},
	{Name: "obs.cost_sample_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.spans_per_request", Unit: "count", Better: "lower"},

	{Name: "trace.stage_sum_over_e2e", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits attaches units to values and insists that exactly the defined
// metrics were produced.
func withUnits(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not defined in metrics.go", name)
			}
		}
	}
	return out, nil
}
