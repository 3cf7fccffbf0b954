package diffusion

import (
	"bytes"
	"testing"
	"testing/quick"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/tensor"
)

// TestPropertyUnmaskedAlwaysPreserved is the repository's central
// property-based test: for ANY mask shape, prompt and seed, the mask-aware
// edit leaves every unmasked latent cell's pixels bit-identical to the
// template's regenerated output (§3.1's core guarantee).
func TestPropertyUnmaskedAlwaysPreserved(t *testing.T) {
	e := newTestEngine(t)
	tc, tplOut := testTemplate(t, e, false)
	cfg := e.Model.Config()
	patch := e.Codec.Patch

	prompts := []string{"", "red dress", "blue hat", "golden ring", "a very long prompt with many words"}
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		// Random mask: blob, rect or multi-blob with random size.
		var m *mask.Mask
		switch rng.Intn(3) {
		case 0:
			m = mask.WithRatio(rng, cfg.LatentH, cfg.LatentW, 0.05+0.9*rng.Float64())
		case 1:
			y0, x0 := rng.Intn(cfg.LatentH-1), rng.Intn(cfg.LatentW-1)
			m = mask.Rect(cfg.LatentH, cfg.LatentW, y0, x0,
				y0+1+rng.Intn(cfg.LatentH-y0), x0+1+rng.Intn(cfg.LatentW-x0))
		default:
			m = mask.MultiBlob(rng, cfg.LatentH, cfg.LatentW, 2+rng.Intn(12), 1+rng.Intn(3))
		}
		if m.MaskedCount() == 0 {
			return true
		}
		res, err := e.Edit(EditRequest{
			Template: tc, Mask: m,
			Prompt: prompts[rng.Intn(len(prompts))],
			Seed:   rng.Uint64(),
			Mode:   EditCachedY,
		})
		if err != nil {
			return false
		}
		for ly := 0; ly < cfg.LatentH; ly++ {
			for lx := 0; lx < cfg.LatentW; lx++ {
				if m.At(ly, lx) {
					continue
				}
				for py := 0; py < patch; py += 3 {
					for px := 0; px < patch; px += 3 {
						r0, g0, b0 := tplOut.At(ly*patch+py, lx*patch+px)
						r1, g1, b1 := res.Image.At(ly*patch+py, lx*patch+px)
						if r0 != r1 || g0 != g1 || b0 != b1 {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPipelineDecisionsPreserveUnmasked checks that arbitrary
// bubble-free per-block decisions (any cached/compute-all mix) never break
// the unmasked-preservation guarantee.
func TestPropertyPipelineDecisionsPreserveUnmasked(t *testing.T) {
	e := newTestEngine(t)
	tc, tplOut := testTemplate(t, e, false)
	cfg := e.Model.Config()
	m := mask.Rect(cfg.LatentH, cfg.LatentW, 1, 1, 4, 4)

	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		useCache := make([]bool, cfg.NumBlocks)
		anyCached := false
		for i := range useCache {
			useCache[i] = rng.Float64() < 0.6
			anyCached = anyCached || useCache[i]
		}
		if !anyCached {
			useCache[0] = true
		}
		res, err := e.Edit(EditRequest{
			Template: tc, Mask: m, Prompt: "p", Seed: seed,
			Mode: EditCachedY, UseCacheBlocks: useCache,
		})
		if err != nil {
			return false
		}
		// Sample a handful of unmasked cells.
		for _, cell := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {5, 5}, {4, 0}} {
			py, px := cell[0]*e.Codec.Patch, cell[1]*e.Codec.Patch
			r0, g0, b0 := tplOut.At(py, px)
			r1, g1, b1 := res.Image.At(py, px)
			if r0 != r1 || g0 != g1 || b0 != b1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCacheSerializationIdempotent round-trips random template
// caches through the binary format.
func TestPropertyCacheSerializationIdempotent(t *testing.T) {
	e := newTestEngine(t)
	f := func(seed uint64) bool {
		h, w := e.Codec.ImageSize(testCfg.LatentH, testCfg.LatentW)
		tc, _, err := e.PrepareTemplate(seed%16, img.SynthTemplate(seed, h, w), "p", seed%2 == 0)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := tc.Serialize(&buf); err != nil {
			return false
		}
		disk := append([]byte(nil), buf.Bytes()...)
		back, err := ReadTemplateCache(&buf)
		if err != nil {
			return false
		}
		// Every matrix came back bit for bit: writing the copy out again
		// gives the same bytes on disk.
		var again bytes.Buffer
		if err := back.Serialize(&again); err != nil || !bytes.Equal(again.Bytes(), disk) {
			return false
		}
		last := tc.Steps[0].Blocks[len(tc.Steps[0].Blocks)-1].Y
		return back.SizeBytes() == tc.SizeBytes() &&
			tensor.Equal(back.Z0, tc.Z0) && tensor.Equal(back.Noise, tc.Noise) &&
			tensor.Equal(back.Steps[0].Blocks[len(back.Steps[0].Blocks)-1].Y, last)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}
