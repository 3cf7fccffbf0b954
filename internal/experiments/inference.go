package experiments

import (
	"fmt"
	"time"

	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/perfmodel"
	"flashps/internal/pipeline"
	"flashps/internal/quality"
	"flashps/internal/tensor"
)

func init() {
	register("fig1", fig1)
	register("fig4left", fig4Left)
	register("fig9", fig9)
	register("fig11", fig11)
	register("fig15", fig15)
	register("table1", table1)
	register("kvcache", kvCache)
}

// fig1 reproduces the headline example: a single SDXL edit at mask ratio
// ≈0.2, reporting the simulated paper-scale speedup (the paper's 1.7×
// banner), the measured numeric-engine speedup, and the quality of the
// mask-aware output vs the naive mask-only baseline (the distorted
// rightmost image of Fig 1).
func fig1(opts Options) ([]*Table, error) {
	cfg := model.SDXLSim
	eng, err := diffusion.NewEngine(cfg, opts.Seed^0xF16)
	if err != nil {
		return nil, err
	}
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tc, _, err := eng.PrepareTemplate(1, img.SynthTemplate(opts.Seed, h, w), "model photo", false)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(opts.Seed)
	m := mask.WithRatio(rng, cfg.LatentH, cfg.LatentW, 0.2)
	req := diffusion.EditRequest{Template: tc, Mask: m, Prompt: "a floral summer dress", Seed: 7}

	timeEdit := func(mode diffusion.EditMode) (*diffusion.EditResult, float64, error) {
		req := req
		req.Mode = mode
		start := time.Now()
		res, err := eng.Edit(req)
		return res, time.Since(start).Seconds(), err
	}
	full, tFull, err := timeEdit(diffusion.EditFull)
	if err != nil {
		return nil, err
	}
	cached, tCached, err := timeEdit(diffusion.EditCachedY)
	if err != nil {
		return nil, err
	}
	naive, _, err := timeEdit(diffusion.EditNaiveSkip)
	if err != nil {
		return nil, err
	}

	p := perfmodel.SDXLPaper
	simFull := p.BlockComputeFull(1) * float64(p.Blocks) * float64(p.Steps)
	cost := pipeline.BlockCost{
		CompCached: p.BlockComputeMasked([]float64{m.Ratio()}),
		CompFull:   p.BlockComputeFull(1),
		Load:       p.BlockLoadBatch([]perfmodel.LoadItem{{Template: 1, Step: 0, Ratio: m.Ratio()}}),
	}
	simCached := pipeline.UniformLatency(cost, p.Blocks) * float64(p.Steps)

	t := &Table{
		Title:  "Fig 1 — headline example: SDXL virtual try-on edit, mask ratio 0.2",
		Note:   "Paper: 1.7× inference speedup with preserved quality; naive mask-only computation distorts the output.",
		Header: []string{"quantity", "value"},
	}
	t.AddRow("mask ratio", f3(m.Ratio()))
	t.AddRow("simulated full-image latency (s, H800)", f2(simFull))
	t.AddRow("simulated FlashPS latency (s, H800)", f2(simCached))
	t.AddRow("simulated speedup", f2(simFull/simCached))
	t.AddRow("numeric engine full latency (s, CPU)", f3(tFull))
	t.AddRow("numeric engine FlashPS latency (s, CPU)", f3(tCached))
	t.AddRow("numeric engine speedup", f2(tFull/tCached))
	t.AddRow("SSIM(FlashPS, full)", f4(quality.SSIM(cached.Image, full.Image)))
	t.AddRow("SSIM(naive-skip, full)  [distorted]", f4(quality.SSIM(naive.Image, full.Image)))
	return []*Table{t}, nil
}

// fig4Left reproduces the cache-loading microbenchmark: per-image latency
// of naive sequential loading, the strawman pipeline, FlashPS's
// bubble-free pipeline, and the ideal (free loading) lower bound on
// SDXL/H800 across mask ratios.
func fig4Left(Options) ([]*Table, error) {
	p := perfmodel.SDXLPaper
	t := &Table{
		Title:  "Fig 4-Left — inference latency by cache-loading scheme (SDXL, H800)",
		Note:   "Paper anchor: naive sequential loading adds ≈102% latency at m=0.2; bubble-free ≈ ideal.",
		Header: []string{"mask ratio", "naive (s)", "strawman (s)", "bubble-free (s)", "ideal (s)", "naive overhead"},
	}
	for _, m := range []float64{0.05, 0.1, 0.2, 0.35, 0.5} {
		cost := pipeline.BlockCost{
			CompCached: p.BlockComputeMasked([]float64{m}),
			CompFull:   p.BlockComputeFull(1),
			Load:       p.BlockLoadBatch([]perfmodel.LoadItem{{Template: 1, Step: 0, Ratio: m}}),
		}
		costs := pipeline.Uniform(cost, p.Blocks)
		steps := float64(p.Steps)
		naive := pipeline.NaiveLatency(costs) * steps
		straw := pipeline.StrawmanLatency(costs) * steps
		opt := pipeline.UniformLatency(cost, p.Blocks) * steps
		ideal := pipeline.IdealLatency(costs) * steps
		t.AddRow(f2(m), f2(naive), f2(straw), f2(opt), f2(ideal),
			f1((naive/opt-1)*100)+"%")
	}
	return []*Table{t}, nil
}

// fig9 shows the pipeline schedules themselves: how many blocks the DP
// marks compute-all as loading becomes the bottleneck.
func fig9(Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig 9 — bubble-free pipeline schedules (Algorithm 1, SDXL, batch 4, distinct templates)",
		Note:   "Small masks are load-bound, so the DP mixes compute-all blocks to squeeze out bubbles.",
		Header: []string{"mask ratio", "cached blocks", "total blocks", "bubble-free (ms/step)", "strawman (ms/step)", "all-full (ms/step)"},
	}
	p := perfmodel.SDXLPaper
	for _, m := range []float64{0.02, 0.05, 0.11, 0.2, 0.35} {
		batch := 4
		ratios := make([]float64, batch)
		items := make([]perfmodel.LoadItem, batch)
		for i := range ratios {
			ratios[i] = m
			items[i] = perfmodel.LoadItem{Template: uint64(i), Step: i, Ratio: m}
		}
		cost := pipeline.BlockCost{
			CompCached: p.BlockComputeMasked(ratios),
			CompFull:   p.BlockComputeFull(batch),
			Load:       p.BlockLoadBatch(items),
		}
		costs := pipeline.Uniform(cost, p.Blocks)
		sched := pipeline.Optimize(costs)
		t.AddRow(f2(m), itoa(sched.CacheBlockCount()), itoa(p.Blocks),
			ms(sched.Latency), ms(pipeline.StrawmanLatency(costs)), ms(pipeline.FullComputeLatency(costs)))
	}
	return []*Table{t}, nil
}

// fig11 reports the offline latency-regression fits and their R².
func fig11(opts Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig 11 — latency regression models fitted from offline profiling",
		Note:   "Paper anchor: R² ≈ 0.99 for all models.",
		Header: []string{"model", "GPU", "comp R²", "load R²", "comp slope (s/TFLOP)", "load slope (s/GiB)"},
	}
	for _, p := range perfmodel.AllPaperProfiles() {
		est, err := perfmodel.Calibrate(p, tensor.NewRNG(opts.Seed^0xF11), 0.02)
		if err != nil {
			return nil, err
		}
		t.AddRow(p.Name, p.GPU.Name, f4(est.R2Comp), f4(est.R2Load),
			f3(est.Comp.Slope*1e12), f3(est.Load.Slope*float64(1<<30)))
	}
	return []*Table{t}, nil
}

// fig15 reproduces the mask-ratio scaling study: kernel-level latency of
// the numeric engine's mask-aware block (measured on CPU) and image-level
// simulated latency for all three paper models, with the m=0.2 speedups.
func fig15(opts Options) ([]*Table, error) {
	// Kernel level: measure the numeric mask-aware block forward across
	// ratios and fit linearity.
	cfg := model.FluxSim
	mdl := model.MustNew(cfg, opts.Seed^0xF15)
	rng := tensor.NewRNG(opts.Seed)
	x := tensor.Randn(rng, cfg.Tokens(), cfg.Hidden, 1)
	blk := mdl.Blocks[0]
	rec := &model.BlockActivations{}
	blk.Forward(x, nil, rec)

	kernel := &Table{
		Title:  "Fig 15-Left — kernel-level latency vs mask ratio (numeric engine, Flux-sim block)",
		Note:   "Latency scales ≈linearly with the mask ratio (Table 1).",
		Header: []string{"mask ratio", "masked tokens", "latency (µs)", "vs full"},
	}
	fullLat := timeBlock(func() { blk.Forward(x, nil, nil) })
	var xs, ys []float64
	for _, m := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0} {
		k := int(m * float64(cfg.Tokens()))
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		lat := timeBlock(func() { blk.ForwardMasked(x, rec.Y, nil, idx) })
		xs = append(xs, m)
		ys = append(ys, lat)
		kernel.AddRow(f2(m), itoa(k), f1(lat*1e6), f2(lat/fullLat))
	}
	_, r2, err := perfmodel.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	kernel.Note += " Linear fit R² = " + f3(r2) + "."

	image := &Table{
		Title:  "Fig 15-Right — image-level latency vs mask ratio (simulated, per model)",
		Note:   "Paper anchor at m=0.2: speedups ≈1.3 / 2.2 / 1.9× for SD2.1 / SDXL / Flux.",
		Header: []string{"model", "m=0.05", "m=0.11", "m=0.2", "m=0.35", "m=0.5", "full (s)", "speedup@0.2"},
	}
	for _, p := range perfmodel.AllPaperProfiles() {
		row := []string{p.Name}
		var at02 float64
		for _, m := range []float64{0.05, 0.11, 0.2, 0.35, 0.5} {
			cost := pipeline.BlockCost{
				CompCached: p.BlockComputeMasked([]float64{m}),
				CompFull:   p.BlockComputeFull(1),
				Load:       p.BlockLoadBatch([]perfmodel.LoadItem{{Template: 1, Step: 0, Ratio: m}}),
			}
			lat := pipeline.UniformLatency(cost, p.Blocks) * float64(p.Steps)
			if m == 0.2 {
				at02 = lat
			}
			row = append(row, f2(lat))
		}
		full := p.ImageLatencyFull(1)
		row = append(row, f2(full), f2(full/at02))
		image.AddRow(row...)
	}
	return []*Table{kernel, image}, nil
}

// timeBlock measures fn's wall time, repeating to exceed a floor.
func timeBlock(fn func()) float64 {
	const minDuration = 5 * time.Millisecond
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= minDuration {
			return elapsed.Seconds() / float64(iters)
		}
		iters *= 4
	}
}

// table1 prints the FLOP accounting of Table 1 for SDXL at two ratios.
func table1(Options) ([]*Table, error) {
	var out []*Table
	for _, m := range []float64{0.11, 0.2} {
		rows := table1Rows(perfmodel.SDXLPaper, m, 1)
		t := &Table{
			Title:  "Table 1 — speedup and cache-size analysis (SDXL, B=1, m=" + f2(m) + ")",
			Note:   "Speedup is exactly 1/m for every masked operator.",
			Header: []string{"operator", "full GFLOPs", "masked GFLOPs", "speedup", "cache shape"},
		}
		for _, r := range rows {
			t.AddRow(r.Operator, f1(r.FullFLOPs/1e9), f1(r.MaskedFLOPs/1e9), f2(r.Speedup), r.CacheShape)
		}
		out = append(out, t)
	}
	return out, nil
}

// kvCache reproduces the Fig 7 / §3.1 tradeoff between caching Y and
// caching K/V.
func kvCache(Options) ([]*Table, error) {
	t := &Table{
		Title:  "Fig 7 / §3.1 — caching Y vs caching K,V (SDXL)",
		Note:   "Paper anchor at m=0.2: KV variant ≈10% faster compute at 2× the cached bytes (2.27 s → 2.06 s).",
		Header: []string{"mask ratio", "compute Y (s)", "compute KV (s)", "compute gain", "pipeline Y (s)", "pipeline KV (s)", "cache Y (GiB)", "cache KV (GiB)"},
	}
	for _, m := range []float64{0.1, 0.2, 0.35} {
		kv := compareKV(perfmodel.SDXLPaper, m)
		t.AddRow(f2(m), f2(kv.ComputeY), f2(kv.ComputeKV),
			f1(kv.ComputeGain*100)+"%",
			f2(kv.PipelineY), f2(kv.PipelineKV),
			f2(kv.CacheBytesY/(1<<30)), f2(kv.CacheBytesKV/(1<<30)))
	}
	return []*Table{t}, nil
}

// table1Row is the speedup/caching analysis of one operator class
// (paper Table 1).
type table1Row struct {
	Operator    string
	FullFLOPs   float64
	MaskedFLOPs float64
	Speedup     float64 // Full/Masked ≈ 1/m
	CacheShape  string  // (B, (1-m)·L, H)
}

// table1Rows returns the per-operator FLOP accounting for a profile at mask
// ratio m and batch size b.
func table1Rows(p perfmodel.ModelProfile, m float64, b int) []table1Row {
	L := float64(p.Tokens)
	H := float64(p.Hidden)
	B := float64(b)
	shape := fmt.Sprintf("(%d, %.0f, %d)", b, (1-m)*L, p.Hidden)
	rows := []table1Row{
		{
			Operator:    "(XW1)W2 feed-forward",
			FullFLOPs:   B * 4 * float64(p.FFNMult) * L * H * H,
			MaskedFLOPs: B * 4 * float64(p.FFNMult) * m * L * H * H,
		},
		{
			Operator:    "XW linear projection",
			FullFLOPs:   B * 2 * L * H * H,
			MaskedFLOPs: B * 2 * m * L * H * H,
		},
		{
			Operator:    "QK^T/sqrt(H) attention",
			FullFLOPs:   B * 2 * L * L * H,
			MaskedFLOPs: B * 2 * m * L * L * H,
		},
	}
	for i := range rows {
		rows[i].Speedup = rows[i].FullFLOPs / rows[i].MaskedFLOPs
		rows[i].CacheShape = shape
	}
	return rows
}

// kvComparison quantifies the Fig 7 tradeoff between caching Y and caching
// K/V at one mask ratio. The paper (§3.1) measures the tradeoff in a
// compute-bound setting — the KV variant skips the unmasked K/V
// projections and runs ≈10% faster (2.27 s → 2.06 s at m=0.2) at double
// the cached bytes (K+V vs Y). In load-bound regimes the doubled cache
// traffic erases the gain, which the Pipeline fields expose.
type kvComparison struct {
	// ComputeY/ComputeKV are per-image compute latencies with loading
	// fully overlapped (the paper's measurement context).
	ComputeY    float64
	ComputeKV   float64
	ComputeGain float64 // (ComputeY-ComputeKV)/ComputeY, paper ≈0.10
	// PipelineY/PipelineKV include cache-loading via max(compute, load).
	PipelineY  float64
	PipelineKV float64
	// Cache footprints: K+V doubles the Y-only bytes.
	CacheBytesY  float64
	CacheBytesKV float64
}

// compareKV evaluates the tradeoff for a profile at mask ratio m.
func compareKV(p perfmodel.ModelProfile, m float64) kvComparison {
	ratios := []float64{m}
	loadY := p.BlockLoadBytes(m) / p.GPU.PCIeBW
	loadKV := 2 * loadY // K and V instead of Y
	compY := p.BlockComputeMasked(ratios)
	compKV := p.BlockComputeMaskedKVLatency(m)
	scale := float64(p.Blocks) * float64(p.Steps)
	return kvComparison{
		ComputeY:     compY * scale,
		ComputeKV:    compKV * scale,
		ComputeGain:  (compY - compKV) / compY,
		PipelineY:    max(compY, loadY) * scale,
		PipelineKV:   max(compKV, loadKV) * scale,
		CacheBytesY:  p.TemplateCacheBytes(),
		CacheBytesKV: 2 * p.TemplateCacheBytes(),
	}
}
