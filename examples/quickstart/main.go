// Quickstart: prepare a template once, then run a mask-aware edit — the
// edit a served /v1/edits request runs — and compare it against full-image
// regeneration: the paper's core loop in ~40 lines of API usage.
//
//	go run ./examples/quickstart
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
	"flashps/internal/quality"
	"flashps/internal/tensor"
)

func main() {
	// Use every core for the tensor kernels (the library default is serial).
	tensor.SetParallelism(runtime.GOMAXPROCS(0))
	eng, err := diffusion.NewEngine(model.SDXLSim, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Synthesize an image template (stand-in for a product/model photo)
	// and run the cache-population pass: a full generation that records
	// every block's activations for later reuse (§2.2, §3.1).
	cfg := eng.Model.Config()
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	template := img.SynthTemplate(7, h, w)
	tc, templateOut, err := eng.PrepareTemplate(1, template, "studio photo of a model", false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("template prepared: %.1f MiB of cached activations\n",
		float64(tc.SizeBytes())/(1<<20))

	// Edit: mask ≈20% of the latent grid and generate new content there.
	m := mask.Rect(cfg.LatentH, cfg.LatentW, 3, 3, 8, 9)
	fmt.Printf("mask: %v\n", m)

	start := time.Now()
	res, err := eng.Edit(diffusion.EditRequest{
		Template: tc, Mask: m, Prompt: "a red floral dress", Seed: 3,
		Mode: diffusion.EditCachedY,
	})
	if err != nil {
		log.Fatal(err)
	}
	editLatency := time.Since(start)

	// Baseline: full-image regeneration (what Diffusers does).
	start = time.Now()
	full, err := eng.Edit(diffusion.EditRequest{
		Template: tc, Mask: m, Prompt: "a red floral dress", Seed: 3,
		Mode: diffusion.EditFull,
	})
	if err != nil {
		log.Fatal(err)
	}
	fullLatency := time.Since(start)

	fmt.Printf("mask-aware edit:      %8.1f ms\n", editLatency.Seconds()*1e3)
	fmt.Printf("full regeneration:    %8.1f ms\n", fullLatency.Seconds()*1e3)
	fmt.Printf("measured speedup:     %8.2f×\n", fullLatency.Seconds()/editLatency.Seconds())
	fmt.Printf("SSIM vs full regeneration: %.4f (paper: ≈0.99)\n",
		quality.SSIM(res.Image, full.Image))

	// The unmasked region is untouched: identical to the template output.
	identical := true
	for ly := 0; ly < cfg.LatentH && identical; ly++ {
		for lx := 0; lx < cfg.LatentW && identical; lx++ {
			if m.At(ly, lx) {
				continue
			}
			py, px := ly*eng.Codec.Patch, lx*eng.Codec.Patch
			r0, g0, b0 := templateOut.At(py, px)
			r1, g1, b1 := res.Image.At(py, px)
			identical = r0 == r1 && g0 == g1 && b0 == b1
		}
	}
	fmt.Printf("unmasked region bit-identical to template: %v\n", identical)

	if err := res.Image.SavePNG("quickstart_edit.png"); err == nil {
		fmt.Println("wrote quickstart_edit.png")
	}
}
