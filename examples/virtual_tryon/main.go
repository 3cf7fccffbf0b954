// Virtual try-on: the paper's Fig 1 scenario. One model photo serves as a
// template that is edited many times with different garment masks and
// prompts — exactly the production pattern (§2.2: 970 templates reused
// ≈35,000 times each). The template's activation cache is built once and
// reused by every subsequent request.
//
//	go run ./examples/virtual_tryon
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/obs"
	"flashps/internal/quality"
	"flashps/internal/tensor"
	"flashps/internal/workload"
)

func main() {
	// Use every core for the tensor kernels (the library default is serial).
	tensor.SetParallelism(runtime.GOMAXPROCS(0))
	eng, err := diffusion.NewEngine(model.SDXLSim, 42)
	if err != nil {
		log.Fatal(err)
	}
	cfg := eng.Model.Config()
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)

	// The model photo. Preparing it costs one full generation; the cache
	// then serves every try-on request.
	tc, _, err := eng.PrepareTemplate(1, img.SynthTemplate(11, h, w), "model wearing plain outfit", false)
	if err != nil {
		log.Fatal(err)
	}

	garments := []string{
		"a red evening gown", "a blue denim jacket", "a green summer dress",
		"a black leather coat", "a white linen shirt", "a floral blouse",
	}

	rng := tensor.NewRNG(99)
	var flashLat, fullLat, ssims obs.Dist
	fmt.Println("try-on requests (VITON-like mask ratios, mean ≈0.35):")
	for i, garment := range garments {
		// Garment region: irregular mask with a VITON-like ratio.
		ratio := workload.VITONTrace.Sample(rng)
		m := mask.WithRatio(rng, cfg.LatentH, cfg.LatentW, ratio)

		req := diffusion.EditRequest{Template: tc, Mask: m, Prompt: garment, Seed: uint64(i), Mode: diffusion.EditCachedY}
		start := time.Now()
		res, err := eng.Edit(req)
		if err != nil {
			log.Fatal(err)
		}
		flash := time.Since(start).Seconds()

		req.Mode = diffusion.EditFull
		start = time.Now()
		full, err := eng.Edit(req)
		if err != nil {
			log.Fatal(err)
		}
		fullS := time.Since(start).Seconds()

		ssim := quality.SSIM(res.Image, full.Image)
		flashLat.Add(flash)
		fullLat.Add(fullS)
		ssims.Add(ssim)
		fmt.Printf("  %-22s mask %.2f  flashps %6.1fms  full %6.1fms  SSIM %.4f\n",
			garment, m.Ratio(), flash*1e3, fullS*1e3, ssim)
	}

	fmt.Printf("\nmean measured speedup: %.2f× (paper Fig 1 banner: 1.7× on H800)\n",
		fullLat.Mean()/flashLat.Mean())
	fmt.Printf("mean SSIM vs full regeneration: %.4f (paper Table 2 VITON-HD: 0.99)\n", ssims.Mean())
	fmt.Printf("cache reused %d times after a single %0.1f MiB preparation\n",
		len(garments), float64(tc.SizeBytes())/(1<<20))
}
