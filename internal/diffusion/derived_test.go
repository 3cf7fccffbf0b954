package diffusion

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// twoTemplates prepares a template free to derive its K/V and a fresh copy
// of it (through the on-disk format, as a promotion from the spill tier
// makes one) with derivation withheld: the computed path every edit took
// before derived K/V existed.
func twoTemplates(t *testing.T, e *Engine) (derived, computed *TemplateCache, out *img.Image) {
	t.Helper()
	cfg := e.Model.Config()
	h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	derived, out, err := e.PrepareTemplate(11, img.SynthTemplate(11, h, w), "studio photo", false)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := derived.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if computed, err = ReadTemplateCache(&buf); err != nil {
		t.Fatal(err)
	}
	computed.SetDeriveGate(func(int64) bool { return false })
	return derived, computed, out
}

// randomMask returns a mask of n tokens, 1 ≤ n < L, drawn so that small
// masks (the production mix) and nearly full ones both turn up.
func randomMask(rng *tensor.RNG, cfg model.Config) *mask.Mask {
	L := cfg.Tokens()
	n := 1 + int(math.Pow(float64(L-1), rng.Float64())) // log-uniform in [1, L-1]
	n = min(n, L-1)
	if rng.Intn(2) == 0 {
		return mask.Blob(rng, cfg.LatentH, cfg.LatentW, n)
	}
	m := mask.New(cfg.LatentH, cfg.LatentW)
	for set := 0; set < n; {
		if i := rng.Intn(L); !m.Bits[i] {
			m.Bits[i] = true
			set++
		}
	}
	return m
}

// TestPropertyDerivedEqualsComputed is the determinism contract used as a
// generator: for random masks (one token to all but one), seeds, prompts
// and step policies on all three stand-in models, a cached-Y edit on a
// template with derived K/V produces the bits of the same edit on a fresh
// template that never derives — final latent and PNG — and leaves the
// unmasked pixels the template's. `make test-noavx` runs it on the
// portable kernels.
func TestPropertyDerivedEqualsComputed(t *testing.T) {
	prompts := []string{"", "red dress", "a very long prompt with many words"}
	policies := []string{"off", "block", "combined"}
	for _, cfg := range model.AllSimConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			e, err := NewEngine(cfg, 42)
			if err != nil {
				t.Fatal(err)
			}
			withKV, without, tplOut := twoTemplates(t, e)
			rng := tensor.NewRNG(uint64(len(cfg.Name)) * 7919)
			// Nine cases on the 64-token model, three (one per policy) on
			// the 256-token one, whose edits cost 30× as much on the
			// portable kernels.
			for i := 0; i < max(3, 9*64/cfg.Tokens()); i++ {
				req := EditRequest{
					Mask: randomMask(rng, cfg), Prompt: prompts[rng.Intn(len(prompts))],
					Seed: rng.Uint64(), Mode: EditCachedY, Policy: policies[i%len(policies)],
				}
				name := fmt.Sprintf("case %d (%d of %d tokens, policy %s)", i, req.Mask.MaskedCount(), cfg.Tokens(), req.Policy)
				req.Template = withKV
				got, err := e.Edit(req)
				if err != nil {
					t.Fatal(err)
				}
				req.Template = without
				want, err := e.Edit(req)
				if err != nil {
					t.Fatal(err)
				}
				if !tensor.Equal(got.FinalLatent, want.FinalLatent) {
					t.Fatalf("%s: final latent differs from the computed path (max |Δ| %g)", name, tensor.MaxAbsDiff(got.FinalLatent, want.FinalLatent))
				}
				gotPNG, err := img.EncodePNG(got.Image)
				if err != nil {
					t.Fatal(err)
				}
				wantPNG, err := img.EncodePNG(want.Image)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotPNG, wantPNG) {
					t.Fatalf("%s: PNG bytes differ", name)
				}
				if got.BlocksReused != want.BlocksReused {
					t.Fatalf("%s: reused %d blocks, the computed path %d", name, got.BlocksReused, want.BlocksReused)
				}
				patch := e.Codec.Patch
				for ly := 0; ly < cfg.LatentH; ly++ {
					for lx := 0; lx < cfg.LatentW; lx++ {
						if req.Mask.At(ly, lx) {
							continue
						}
						for p := 0; p < patch; p += 3 {
							r0, g0, b0 := tplOut.At(ly*patch+p, lx*patch+p)
							r1, g1, b1 := got.Image.At(ly*patch+p, lx*patch+p)
							if r0 != r1 || g0 != g1 || b0 != b1 {
								t.Fatalf("%s: unmasked cell (%d,%d) is not the template's", name, ly, lx)
							}
						}
					}
				}
			}
			if withKV.DerivedBytes() == 0 || without.DerivedBytes() != 0 {
				t.Fatalf("derived bytes: %d on the free template, %d on the withheld one", withKV.DerivedBytes(), without.DerivedBytes())
			}
			// 2·(B−1)/B of the Y bytes, and not counted among them.
			if want := withKV.SizeBytes() * 2 * int64(cfg.NumBlocks-1) / int64(cfg.NumBlocks); withKV.DerivedBytes() != want {
				t.Fatalf("derived K/V is %d bytes, want %d", withKV.DerivedBytes(), want)
			}
			if withKV.SizeBytes() != without.SizeBytes() {
				t.Fatalf("SizeBytes moved with derivation: %d vs %d", withKV.SizeBytes(), without.SizeBytes())
			}
		})
	}
}

// TestDerivedNotReadAfterComputeAllBlock: a block whose predecessor
// computed all tokens (a bubble-free pipeline hole in UseCacheBlocks) gets
// input rows the cache has never seen, so it must project its own K/V. The
// derived K/V of every such block is poisoned with NaN here; the edit must
// still equal the computed path bit for bit, for every hole pattern.
func TestDerivedNotReadAfterComputeAllBlock(t *testing.T) {
	cfg := testCfg
	cfg.Name, cfg.NumBlocks, cfg.GuidanceScale = "difftest-holes", 5, 1.5
	e, err := NewEngine(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	withKV, without, _ := twoTemplates(t, e)
	m := mask.Rect(cfg.LatentH, cfg.LatentW, 1, 1, 4, 3)
	for pattern := 0; pattern < 1<<cfg.NumBlocks; pattern++ {
		use := make([]bool, cfg.NumBlocks)
		for i := range use {
			use[i] = pattern>>i&1 == 1
		}
		req := EditRequest{Mask: m, Prompt: "blue hat", Seed: uint64(pattern), Mode: EditCachedY, UseCacheBlocks: use}
		req.Template = without
		want, err := e.Edit(req)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh derivation per pattern, poisoned where it must not be read.
		withKV.DropDerived()
		req.Template = withKV
		s, err := e.BeginEdit(req)
		if err != nil {
			t.Fatal(err)
		}
		read := 0
		for _, steps := range [][]*model.StepActivations{s.derived.cond, s.derived.uncond} {
			for _, st := range steps {
				for i := 1; i < cfg.NumBlocks; i++ {
					if s.kvBlocks[i] {
						read++
						continue
					}
					for _, kv := range []*tensor.Matrix{st.Blocks[i].K, st.Blocks[i].V} {
						for j := range kv.Data {
							kv.Data[j] = float32(math.NaN())
						}
					}
				}
			}
		}
		for !s.Done() {
			if _, err := s.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if !tensor.Equal(s.Latent(), want.FinalLatent) {
			t.Fatalf("UseCacheBlocks %v: differs from the computed path (%d derived blocks read)", use, read)
		}
		// The final block always replenishes, so block i reads derived K/V
		// exactly when block i−1 is a cached one.
		for i := 1; i < cfg.NumBlocks; i++ {
			if prev, cur := use[i-1] || i-1 == cfg.NumBlocks-1, use[i] || i == cfg.NumBlocks-1; s.kvBlocks[i] != (prev && cur) {
				t.Fatalf("UseCacheBlocks %v: block %d takes derived K/V: %v", use, i, s.kvBlocks[i])
			}
		}
		if s.kvBlocks[0] {
			t.Fatalf("UseCacheBlocks %v: the first block takes derived K/V", use)
		}
	}
}

// TestDerivedGateAndDrop: the gate is asked once per derivation with the
// bytes at stake; a refusal leaves the computed path and is asked again by
// the next edit; a drop frees the state and in-flight sessions keep theirs.
func TestDerivedGateAndDrop(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	req := EditRequest{Template: tc, Mask: mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 3, 3), Prompt: "p", Seed: 3, Mode: EditCachedY}
	asked, grant := 0, false
	var bytesAsked int64
	tc.SetDeriveGate(func(b int64) bool { asked++; bytesAsked = b; return grant })
	for i := 1; i <= 2; i++ {
		s, err := e.BeginEdit(req)
		if err != nil {
			t.Fatal(err)
		}
		if s.derived != nil || asked != i || tc.DerivedBytes() != 0 {
			t.Fatalf("refused derivation %d: session derived %v, asked %d times, template holds %d", i, s.derived != nil, asked, tc.DerivedBytes())
		}
	}
	grant = true
	s1, err := e.BeginEdit(req)
	if err != nil {
		t.Fatal(err)
	}
	if s1.derived == nil || tc.DerivedBytes() != bytesAsked || bytesAsked == 0 {
		t.Fatalf("granted derivation: session derived %v, template holds %d, gate was asked for %d", s1.derived != nil, tc.DerivedBytes(), bytesAsked)
	}
	if s2, _ := e.BeginEdit(req); s2.derived != s1.derived || asked != 3 {
		t.Fatalf("second edit re-derived (gate asked %d times)", asked)
	}
	tc.DropDerived()
	if tc.DerivedBytes() != 0 {
		t.Fatal("drop left derived bytes")
	}
	for !s1.Done() { // keeps the copy it began with
		if _, err := s1.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Other modes never derive.
	for _, mode := range []EditMode{EditFull, EditNaiveSkip, EditTeaCache} {
		req.Mode = mode
		if s, err := e.BeginEdit(req); err != nil || s.derived != nil || tc.DerivedBytes() != 0 {
			t.Fatalf("mode %v derived (err %v)", mode, err)
		}
	}
	// A backbone without a derivation rule keeps the computed path.
	unet, err := model.NewUNet(model.SD21UNetSim, 42)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewEngineWith(unet)
	if err != nil {
		t.Fatal(err)
	}
	ucfg := u.Model.Config()
	h, w := u.Codec.ImageSize(ucfg.LatentH, ucfg.LatentW)
	utc, _, err := u.PrepareTemplate(1, img.SynthTemplate(1, h, w), "p", false)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := u.BeginEdit(EditRequest{Template: utc, Mask: mask.Rect(ucfg.LatentH, ucfg.LatentW, 0, 0, 2, 2), Seed: 1, Mode: EditCachedY}); err != nil || s.derived != nil {
		t.Fatalf("the UNet derived K/V (err %v)", err)
	}
}
