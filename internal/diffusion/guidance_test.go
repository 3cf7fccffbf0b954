package diffusion

import (
	"bytes"
	"encoding/binary"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

var cfgGuided = model.Config{
	Name: "cfg-test", LatentH: 6, LatentW: 6, Hidden: 32, Heads: 4,
	ContextTokens: 2, GuidanceScale: 3.5,
	NumBlocks: 3, FFNMult: 4, Steps: 5, LatentChannels: 4,
}

func newGuidedEngine(t testing.TB) (*Engine, *TemplateCache, *img.Image) {
	t.Helper()
	e, err := NewEngine(cfgGuided, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, w := e.Codec.ImageSize(cfgGuided.LatentH, cfgGuided.LatentW)
	tc, out, err := e.PrepareTemplate(3, img.SynthTemplate(3, h, w), "studio", false)
	if err != nil {
		t.Fatal(err)
	}
	return e, tc, out
}

func TestGuidanceRecordsUncondCache(t *testing.T) {
	_, tc, _ := newGuidedEngine(t)
	if len(tc.UncondSteps) != cfgGuided.Steps {
		t.Fatalf("uncond cache has %d steps, want %d", len(tc.UncondSteps), cfgGuided.Steps)
	}
	// Guidance doubles the cached activations.
	var condOnly TemplateCache
	condOnly.Steps = tc.Steps
	if tc.SizeBytes() != 2*condOnly.SizeBytes() {
		t.Fatalf("guided cache %d != 2× cond-only %d", tc.SizeBytes(), condOnly.SizeBytes())
	}
}

func TestGuidancePreservesUnmaskedExactly(t *testing.T) {
	e, tc, tplOut := newGuidedEngine(t)
	m := mask.Rect(cfgGuided.LatentH, cfgGuided.LatentW, 1, 1, 4, 4)
	res, err := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "a red dress", Seed: 9, Mode: EditCachedY})
	if err != nil {
		t.Fatal(err)
	}
	patch := e.Codec.Patch
	for ly := 0; ly < cfgGuided.LatentH; ly++ {
		for lx := 0; lx < cfgGuided.LatentW; lx++ {
			if m.At(ly, lx) {
				continue
			}
			r0, g0, b0 := tplOut.At(ly*patch, lx*patch)
			r1, g1, b1 := res.Image.At(ly*patch, lx*patch)
			if r0 != r1 || g0 != g1 || b0 != b1 {
				t.Fatalf("unmasked cell (%d,%d) changed under guidance", ly, lx)
			}
		}
	}
	if img.MSE(res.Image, tplOut) == 0 {
		t.Fatal("guided edit changed nothing")
	}
}

func TestGuidanceStrengthensPromptInfluence(t *testing.T) {
	// The whole point of CFG: with guidance, two prompts diverge more than
	// without it (same model weights, guidance off via a twin config).
	plain := cfgGuided
	plain.GuidanceScale = 0
	ePlain, err := NewEngine(plain, 42)
	if err != nil {
		t.Fatal(err)
	}
	eGuided, err := NewEngine(cfgGuided, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, w := ePlain.Codec.ImageSize(plain.LatentH, plain.LatentW)
	tpl := img.SynthTemplate(5, h, w)
	m := mask.Rect(plain.LatentH, plain.LatentW, 0, 0, 4, 4)

	divergence := func(e *Engine) float64 {
		tc, _, err := e.PrepareTemplate(5, tpl, "t", false)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "a red dress", Seed: 1, Mode: EditCachedY})
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "a blue coat", Seed: 1, Mode: EditCachedY})
		if err != nil {
			t.Fatal(err)
		}
		return img.MSE(a.Image, b.Image)
	}
	if dg, dp := divergence(eGuided), divergence(ePlain); dg <= dp {
		t.Fatalf("guidance should amplify prompt influence: guided %g vs plain %g", dg, dp)
	}
}

func TestGuidanceSessionMatchesEdit(t *testing.T) {
	e, tc, _ := newGuidedEngine(t)
	m := mask.Rect(cfgGuided.LatentH, cfgGuided.LatentW, 2, 2, 5, 5)
	for _, mode := range []EditMode{EditFull, EditCachedY, EditTeaCache} {
		req := EditRequest{Template: tc, Mask: m, Prompt: "p", Seed: 4, Mode: mode}
		want, err := e.Edit(req)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		s, err := e.BeginEdit(req)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for !s.Done() {
			if _, err := s.Step(); err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
		}
		got, err := s.Result()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if img.MSE(got.Image, want.Image) != 0 {
			t.Fatalf("%v: guided session diverges from Edit", mode)
		}
	}
}

func TestGuidanceRequiresUncondCache(t *testing.T) {
	e, tc, _ := newGuidedEngine(t)
	broken := &TemplateCache{
		TemplateID: tc.TemplateID, Z0: tc.Z0, Noise: tc.Noise,
		Steps: tc.Steps, Cond: tc.Cond, // UncondSteps missing
	}
	m := mask.Rect(cfgGuided.LatentH, cfgGuided.LatentW, 0, 0, 2, 2)
	if _, err := e.Edit(EditRequest{Template: broken, Mask: m, Mode: EditCachedY}); err == nil {
		t.Fatal("cached edit without uncond cache accepted under guidance")
	}
	if _, err := e.BeginEdit(EditRequest{Template: broken, Mask: m, Mode: EditCachedY}); err == nil {
		t.Fatal("session without uncond cache accepted under guidance")
	}
}

func TestGuidanceCacheSerializationRoundTrip(t *testing.T) {
	_, tc, _ := newGuidedEngine(t)
	var buf bytes.Buffer
	if err := tc.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTemplateCache(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.UncondSteps) != len(tc.UncondSteps) {
		t.Fatalf("uncond steps %d vs %d", len(back.UncondSteps), len(tc.UncondSteps))
	}
	if back.SizeBytes() != tc.SizeBytes() {
		t.Fatal("guided cache round trip size mismatch")
	}
}

// TestSerializeMatchesFloatByFloatEncoding holds Serialize, which writes
// matrix payloads straight from their storage on a little-endian host, to
// the format encoded value by value with encoding/binary: a guided template
// with recorded K/V, so that every section and block flag is present.
func TestSerializeMatchesFloatByFloatEncoding(t *testing.T) {
	e, err := NewEngine(cfgGuided, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, w := e.Codec.ImageSize(cfgGuided.LatentH, cfgGuided.LatentW)
	tc, _, err := e.PrepareTemplate(9, img.SynthTemplate(9, h, w), "studio photo", true)
	if err != nil {
		t.Fatal(err)
	}
	if tc.UncondSteps == nil || tc.Steps[0].Blocks[0].K == nil {
		t.Fatal("template lacks the unconditional pass or recorded K/V")
	}
	var want bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&want, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	matrix := func(m *tensor.Matrix) { put(uint32(m.R)); put(uint32(m.C)); put(m.Data) }
	steps := func(ss []*model.StepActivations) {
		put(uint32(len(ss)))
		for _, st := range ss {
			if st == nil {
				put(uint32(0))
				continue
			}
			put(uint32(len(st.Blocks)))
			for _, b := range st.Blocks {
				var flags byte
				var present []*tensor.Matrix
				for i, m := range []*tensor.Matrix{b.Y, b.K, b.V} {
					if m != nil {
						flags |= 1 << i
						present = append(present, m)
					}
				}
				put(flags)
				for _, m := range present {
					matrix(m)
				}
			}
		}
	}
	want.WriteString(cacheMagic)
	put(uint32(cacheVersion))
	put(tc.TemplateID)
	put(uint32(len(tc.Cond)))
	put(tc.Cond)
	matrix(tc.Z0)
	matrix(tc.Noise)
	steps(tc.Steps)
	put(byte(1))
	steps(tc.UncondSteps)

	var got bytes.Buffer
	if err := tc.Serialize(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < min(got.Len(), want.Len()) && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("Serialize wrote %d bytes, the float-by-float encoding %d; first difference at byte %d", got.Len(), want.Len(), i)
	}
}

func TestGuidanceValidation(t *testing.T) {
	bad := cfgGuided
	bad.GuidanceScale = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative guidance accepted")
	}
}
