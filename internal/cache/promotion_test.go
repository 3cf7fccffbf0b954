package cache

import (
	"testing"

	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
)

// BenchmarkPromotion reads one sd21-sim template back from the block store,
// as a promotion does: its Y form (1.97 MB), its derived form (3.6 MB of
// K/V and trajectory) into fresh memory, and its derived form into storage
// recycled from the previous read (the tiered store's SlabPool).
func BenchmarkPromotion(b *testing.B) {
	eng, err := diffusion.NewEngine(model.SD21Sim, 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := eng.Model.Config()
	h, w := eng.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tc, _, err := eng.PrepareTemplate(1, img.SynthTemplate(1, h, w), "template", false)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.Edit(diffusion.EditRequest{Template: tc, Mask: mask.Rect(cfg.LatentH, cfg.LatentW, 0, 0, 2, 2),
		Prompt: "p", Seed: 1, Mode: diffusion.EditCachedY}); err != nil {
		b.Fatal(err)
	}
	bs, err := NewBlockStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := bs.Save(1, tc); err != nil {
		b.Fatal(err)
	}
	if err := bs.Save(1, tc.DerivedForm()); err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		pool *diffusion.SlabPool
		key  spillKey
	}{
		{"y", nil, spillKey{id: 1}},
		{"derived", nil, spillKey{1, true}},
		{"derived-recycled", diffusion.NewSlabPool(1 << 30), spillKey{1, true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			bs.pool = c.pool
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := bs.load(c.key)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(got.SizeBytes())
				got.Release()
			}
		})
	}
}
