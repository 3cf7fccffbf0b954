package experiments

import (
	"math"
	"time"

	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/quality"
	"flashps/internal/tensor"
)

func init() {
	register("guidance", guidanceAblation)
}

// guidanceAblation verifies that mask-aware caching composes with
// classifier-free guidance, the dual-pass inference production SD/SDXL
// serving actually runs: guidance doubles per-step compute and the
// template cache (conditional + unconditional activations), the mask-aware
// speedup is preserved, and unmasked pixels remain bit-identical.
func guidanceAblation(opts Options) ([]*Table, error) {
	base := model.Config{
		Name: "cfg-ablation", LatentH: 8, LatentW: 8, Hidden: 48, Heads: 4,
		NumBlocks: 5, FFNMult: 4, Steps: 8, LatentChannels: 4,
	}
	t := &Table{
		Title:  "Ablation — classifier-free guidance × mask-aware caching",
		Note:   "Guidance doubles compute and cache (cond + uncond passes); the mask-aware speedup and the exact unmasked-preservation guarantee are unchanged.",
		Header: []string{"guidance", "cache (MiB)", "full edit (ms)", "mask-aware edit (ms)", "speedup", "SSIM vs full", "unmasked exact"},
	}
	for _, g := range []float64{0, 1.5, 3} {
		cfg := base
		cfg.GuidanceScale = g
		eng, err := diffusion.NewEngine(cfg, opts.Seed^0xCF6)
		if err != nil {
			return nil, err
		}
		h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
		tc, tplOut, err := eng.PrepareTemplate(1, img.SynthTemplate(opts.Seed, h, w), "t", false)
		if err != nil {
			return nil, err
		}
		m := mask.WithRatio(tensor.NewRNG(opts.Seed^0xCF7), cfg.LatentH, cfg.LatentW, 0.2)
		req := diffusion.EditRequest{Template: tc, Mask: m, Prompt: "a red dress", Seed: 5}

		// The fastest of five runs: the first mask-aware edit of a template
		// also derives its K/V, a once-per-template cost, not the edit's,
		// and an edit here takes 1–7 ms, so one host stall (a descheduled
		// vCPU, a GC cycle) can land on two runs in a row.
		timed := func(mode diffusion.EditMode) (res *diffusion.EditResult, ms float64, err error) {
			r := req
			r.Mode = mode
			ms = math.Inf(1)
			for i := 0; i < 5 && err == nil; i++ {
				start := time.Now()
				res, err = eng.Edit(r)
				ms = math.Min(ms, time.Since(start).Seconds()*1e3)
			}
			return res, ms, err
		}
		full, tFull, err := timed(diffusion.EditFull)
		if err != nil {
			return nil, err
		}
		cached, tCached, err := timed(diffusion.EditCachedY)
		if err != nil {
			return nil, err
		}
		exact := "yes"
		patch := eng.Codec.Patch
		for ly := 0; ly < cfg.LatentH && exact == "yes"; ly++ {
			for lx := 0; lx < cfg.LatentW; lx++ {
				if m.At(ly, lx) {
					continue
				}
				r0, g0, b0 := tplOut.At(ly*patch, lx*patch)
				r1, g1, b1 := cached.Image.At(ly*patch, lx*patch)
				if r0 != r1 || g0 != g1 || b0 != b1 {
					exact = "NO"
					break
				}
			}
		}
		t.AddRow(f1(g), f1(float64(tc.SizeBytes())/(1<<20)),
			f1(tFull), f1(tCached), f2(tFull/tCached),
			f4(quality.SSIM(cached.Image, full.Image)), exact)
	}
	return []*Table{t}, nil
}
