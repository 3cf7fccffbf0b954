package diffusion

import (
	"math"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

var testCfg = model.Config{
	Name: "difftest", LatentH: 6, LatentW: 6, Hidden: 32,
	NumBlocks: 3, FFNMult: 4, Steps: 6, LatentChannels: 4,
}

func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := NewEngine(testCfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testTemplate(t testing.TB, e *Engine, recordKV bool) (*TemplateCache, *img.Image) {
	t.Helper()
	h, w := e.Codec.ImageSize(testCfg.LatentH, testCfg.LatentW)
	tpl := img.SynthTemplate(7, h, w)
	tc, out, err := e.PrepareTemplate(7, tpl, "studio photo", recordKV)
	if err != nil {
		t.Fatal(err)
	}
	return tc, out
}

func TestScheduleMonotoneAlphaBar(t *testing.T) {
	s := NewSchedule(20)
	for i := 1; i < s.Steps; i++ {
		if s.AlphaBar[i] >= s.AlphaBar[i-1] {
			t.Fatalf("AlphaBar not strictly decreasing at %d", i)
		}
	}
	if s.AlphaBar[0] <= 0 || s.AlphaBar[0] >= 1 {
		t.Fatalf("AlphaBar[0] = %g out of (0,1)", s.AlphaBar[0])
	}
}

func TestSchedulePanicsOnBadSteps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSchedule(0)
}

func TestSignalNoisePythagorean(t *testing.T) {
	s := NewSchedule(10)
	for tt := 0; tt < 10; tt++ {
		sg, nz := s.SignalNoise(tt)
		if math.Abs(sg*sg+nz*nz-1) > 1e-9 {
			t.Fatalf("signal²+noise² = %g at t=%d", sg*sg+nz*nz, tt)
		}
	}
}

func TestDDIMStepRecoversCleanValue(t *testing.T) {
	// If x_t = √ᾱ_t·x0 + √(1-ᾱ_t)·ε and the model predicts ε exactly,
	// iterating DDIM to t=0 must return exactly x0.
	s := NewSchedule(12)
	x0, eps := 0.37, -0.82
	sg, nz := s.SignalNoise(s.Steps - 1)
	x := sg*x0 + nz*eps
	for tt := s.Steps - 1; tt >= 0; tt-- {
		x = s.DDIMStep(x, eps, tt)
	}
	if math.Abs(x-x0) > 1e-9 {
		t.Fatalf("DDIM recovered %g want %g", x, x0)
	}
}

func TestCodecRoundTripConstantPatches(t *testing.T) {
	c, err := NewCodec(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// An image constant within each patch must round-trip exactly in color.
	lh, lw := 3, 3
	h, w := c.ImageSize(lh, lw)
	im := img.New(h, w)
	rng := tensor.NewRNG(5)
	for ly := 0; ly < lh; ly++ {
		for lx := 0; lx < lw; lx++ {
			r, g, b := float32(rng.Float64()), float32(rng.Float64()), float32(rng.Float64())
			for py := 0; py < 4; py++ {
				for px := 0; px < 4; px++ {
					im.Set(ly*4+py, lx*4+px, r, g, b)
				}
			}
		}
	}
	lat, err := c.Encode(im, lh, lw)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Decode(lat, lh, lw)
	if err != nil {
		t.Fatal(err)
	}
	if mse := img.MSE(im, back); mse > 1e-9 {
		t.Fatalf("codec round-trip MSE = %g", mse)
	}
}

func TestCodecShapeErrors(t *testing.T) {
	c, _ := NewCodec(4, 4)
	if _, err := c.Encode(img.New(10, 10), 3, 3); err == nil {
		t.Fatal("Encode accepted mismatched image")
	}
	if _, err := c.Decode(tensor.New(5, 4), 3, 3); err == nil {
		t.Fatal("Decode accepted mismatched latent")
	}
	if _, err := NewCodec(0, 4); err == nil {
		t.Fatal("NewCodec accepted patch 0")
	}
	if _, err := NewCodec(4, 2); err == nil {
		t.Fatal("NewCodec accepted 2 channels")
	}
}

func TestPrepareTemplateCacheShape(t *testing.T) {
	e := newTestEngine(t)
	tc, out := testTemplate(t, e, false)
	if len(tc.Steps) != testCfg.Steps {
		t.Fatalf("cache has %d steps, want %d", len(tc.Steps), testCfg.Steps)
	}
	for ti, st := range tc.Steps {
		if st == nil || len(st.Blocks) != testCfg.NumBlocks {
			t.Fatalf("step %d cache malformed", ti)
		}
		for bi, b := range st.Blocks {
			if b.Y == nil || b.Y.R != testCfg.Tokens() || b.Y.C != testCfg.Hidden {
				t.Fatalf("step %d block %d Y malformed", ti, bi)
			}
			if b.K != nil || b.V != nil {
				t.Fatal("K/V recorded without recordKV")
			}
		}
	}
	if out == nil || out.H != testCfg.LatentH*8 {
		t.Fatal("template output image malformed")
	}
}

func TestPrepareTemplateRecordsKV(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, true)
	b := tc.Steps[0].Blocks[0]
	if b.K == nil || b.V == nil {
		t.Fatal("recordKV did not record K/V")
	}
	noKV, _ := func() (*TemplateCache, *img.Image) {
		tc2, out2 := testTemplate(t, e, false)
		return tc2, out2
	}()
	if tc.SizeBytes() <= noKV.SizeBytes() {
		t.Fatal("KV cache should be larger than Y-only cache")
	}
	// Paper §3.1: caching K and V roughly doubles... here it triples the Y
	// size per block (Y + K + V), i.e. KV-variant total = 3× Y-only total.
	ratio := float64(tc.SizeBytes()) / float64(noKV.SizeBytes())
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("KV/Y cache size ratio = %g, want ≈3", ratio)
	}
}

func TestEditCachedPreservesUnmaskedPixelsExactly(t *testing.T) {
	// The paper's core guarantee: unmasked regions stay untouched relative
	// to the template's regenerated output.
	e := newTestEngine(t)
	tc, tplOut := testTemplate(t, e, false)
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 4, 4)
	res, err := e.Edit(EditRequest{
		Template: tc, Mask: m, Prompt: "a red scarf", Seed: 9, Mode: EditCachedY,
	})
	if err != nil {
		t.Fatal(err)
	}
	patch := e.Codec.Patch
	for ly := 0; ly < testCfg.LatentH; ly++ {
		for lx := 0; lx < testCfg.LatentW; lx++ {
			if m.At(ly, lx) {
				continue
			}
			for py := 0; py < patch; py++ {
				for px := 0; px < patch; px++ {
					r0, g0, b0 := tplOut.At(ly*patch+py, lx*patch+px)
					r1, g1, b1 := res.Image.At(ly*patch+py, lx*patch+px)
					if r0 != r1 || g0 != g1 || b0 != b1 {
						t.Fatalf("unmasked pixel (%d,%d) changed", ly*patch+py, lx*patch+px)
					}
				}
			}
		}
	}
}

func TestEditCachedChangesMaskedRegion(t *testing.T) {
	e := newTestEngine(t)
	tc, tplOut := testTemplate(t, e, false)
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 0, 0, 3, 3)
	res, err := e.Edit(EditRequest{
		Template: tc, Mask: m, Prompt: "a blue hat", Seed: 3, Mode: EditCachedY,
	})
	if err != nil {
		t.Fatal(err)
	}
	if img.MSE(res.Image, tplOut) == 0 {
		t.Fatal("edit produced identical image; masked region unchanged")
	}
}

func TestEditSeedAndPromptMatter(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 4, 4)
	base, err := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "p", Seed: 1, Mode: EditCachedY})
	if err != nil {
		t.Fatal(err)
	}
	otherSeed, _ := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "p", Seed: 2, Mode: EditCachedY})
	if img.MSE(base.Image, otherSeed.Image) == 0 {
		t.Fatal("different seeds gave identical outputs")
	}
	otherPrompt, _ := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "q", Seed: 1, Mode: EditCachedY})
	if img.MSE(base.Image, otherPrompt.Image) == 0 {
		t.Fatal("different prompts gave identical outputs")
	}
	same, _ := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "p", Seed: 1, Mode: EditCachedY})
	if img.MSE(base.Image, same.Image) != 0 {
		t.Fatal("identical requests gave different outputs (nondeterminism)")
	}
}

func TestEditQualityOrdering(t *testing.T) {
	// Table 2's qualitative ordering on a single edit: relative to the
	// full-computation (Diffusers) output, FlashPS's cached edit must be
	// closer than the naive-skip edit.
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, true)
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 2, 2, 5, 5)
	req := EditRequest{Template: tc, Mask: m, Prompt: "green jacket", Seed: 4}

	full := mustEdit(t, e, req, EditFull)
	cached := mustEdit(t, e, req, EditCachedY)
	cachedKV := mustEdit(t, e, req, EditCachedKV)
	naive := mustEdit(t, e, req, EditNaiveSkip)

	mseCached := img.MSE(cached.Image, full.Image)
	mseKV := img.MSE(cachedKV.Image, full.Image)
	mseNaive := img.MSE(naive.Image, full.Image)
	if mseNaive <= mseCached {
		t.Fatalf("naive (%g) should diverge more from full than cached (%g)", mseNaive, mseCached)
	}
	if math.Abs(mseKV-mseCached) > mseCached+1e-9 {
		t.Fatalf("KV variant quality (%g) should be comparable to Y variant (%g)", mseKV, mseCached)
	}
}

func mustEdit(t *testing.T, e *Engine, req EditRequest, mode EditMode) *EditResult {
	t.Helper()
	req.Mode = mode
	res, err := e.Edit(req)
	if err != nil {
		t.Fatalf("%v: %v", mode, err)
	}
	return res
}

func TestEditTeaCacheSkipsSteps(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 3, 3)
	res, err := e.Edit(EditRequest{
		Template: tc, Mask: m, Prompt: "x", Seed: 1,
		Mode: EditTeaCache, TeaCacheThreshold: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsComputed >= testCfg.Steps {
		t.Fatalf("TeaCache computed all %d steps; expected skipping", res.StepsComputed)
	}
	if res.StepsComputed < 2 {
		t.Fatalf("TeaCache computed only %d steps", res.StepsComputed)
	}
}

func TestEditTeaCacheQualityLatencyTradeoff(t *testing.T) {
	// Raising the threshold must skip more steps and move the output
	// further from the full computation — the latency-quality tradeoff
	// the paper attributes to TeaCache.
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 3, 3)
	req := EditRequest{Template: tc, Mask: m, Prompt: "x", Seed: 1}

	full := mustEdit(t, e, req, EditFull)
	loose := req
	loose.Mode = EditTeaCache
	loose.TeaCacheThreshold = 0.8
	looseRes, err := e.Edit(loose)
	if err != nil {
		t.Fatal(err)
	}
	tight := req
	tight.Mode = EditTeaCache
	tight.TeaCacheThreshold = 0.05
	tightRes, err := e.Edit(tight)
	if err != nil {
		t.Fatal(err)
	}
	if looseRes.StepsComputed >= tightRes.StepsComputed {
		t.Fatalf("loose threshold computed %d steps ≥ tight %d",
			looseRes.StepsComputed, tightRes.StepsComputed)
	}
	if img.MSE(looseRes.Image, full.Image) < img.MSE(tightRes.Image, full.Image) {
		t.Fatal("more skipping should not improve fidelity")
	}
}

func TestEditPartialPipelineBlocks(t *testing.T) {
	// Bubble-free pipeline decisions (some blocks compute-all) must still
	// produce an output close to the all-cached edit.
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 4, 4)
	req := EditRequest{Template: tc, Mask: m, Prompt: "p", Seed: 5, Mode: EditCachedY}
	allCached, err := e.Edit(req)
	if err != nil {
		t.Fatal(err)
	}
	req.UseCacheBlocks = []bool{false, true, true} // block 0 computes all tokens
	partial, err := e.Edit(req)
	if err != nil {
		t.Fatal(err)
	}
	full := mustEdit(t, e, EditRequest{Template: tc, Mask: m, Prompt: "p", Seed: 5}, EditFull)
	msePartial := img.MSE(partial.Image, full.Image)
	mseAll := img.MSE(allCached.Image, full.Image)
	// Computing more blocks fully can only bring us closer to (or keep us
	// as close to) the full computation, modulo tiny float noise.
	if msePartial > mseAll*1.5+1e-9 {
		t.Fatalf("partial pipeline (%g) much worse than all-cached (%g)", msePartial, mseAll)
	}
}

func TestEditErrors(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	if _, err := e.Edit(EditRequest{Mode: EditFull}); err == nil {
		t.Fatal("nil template accepted")
	}
	badMask := mask.New(3, 3)
	if _, err := e.Edit(EditRequest{Template: tc, Mask: badMask, Mode: EditCachedY}); err == nil {
		t.Fatal("mismatched mask grid accepted")
	}
	if _, err := e.Edit(EditRequest{Template: tc, Mode: EditCachedY}); err == nil {
		t.Fatal("cached mode without mask accepted")
	}
	if _, err := e.Edit(EditRequest{Template: tc, Mode: EditMode(77)}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	short := &TemplateCache{Z0: tc.Z0, Noise: tc.Noise, Steps: tc.Steps[:2], Cond: tc.Cond}
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 0, 0, 2, 2)
	if _, err := e.Edit(EditRequest{Template: short, Mask: m, Mode: EditCachedY}); err == nil {
		t.Fatal("short cache accepted")
	}
}

func TestEditModeString(t *testing.T) {
	want := map[EditMode]string{
		EditFull: "full", EditCachedY: "cached-y", EditCachedKV: "cached-kv",
		EditNaiveSkip: "naive-skip", EditTeaCache: "teacache",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %q", m, m.String())
		}
	}
	if EditMode(9).String() != "EditMode(9)" {
		t.Fatal("unknown mode string")
	}
}

func TestCacheSizeBytes(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	want := int64(testCfg.Steps*testCfg.NumBlocks*testCfg.Tokens()*testCfg.Hidden) * 4
	if got := tc.SizeBytes(); got != want {
		t.Fatalf("SizeBytes = %d want %d", got, want)
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	bad := testCfg
	bad.NumBlocks = 0
	if _, err := NewEngine(bad, 1); err == nil {
		t.Fatal("NewEngine accepted bad config")
	}
}

func BenchmarkEditFull(b *testing.B) {
	e, err := NewEngine(testCfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	h, w := e.Codec.ImageSize(testCfg.LatentH, testCfg.LatentW)
	tc, _, err := e.PrepareTemplate(7, img.SynthTemplate(7, h, w), "p", false)
	if err != nil {
		b.Fatal(err)
	}
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Edit(EditRequest{Template: tc, Mask: m, Seed: 1, Mode: EditFull}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEditCachedY(b *testing.B) {
	e, err := NewEngine(testCfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	h, w := e.Codec.ImageSize(testCfg.LatentH, testCfg.LatentW)
	tc, _, err := e.PrepareTemplate(7, img.SynthTemplate(7, h, w), "p", false)
	if err != nil {
		b.Fatal(err)
	}
	m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 4, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Edit(EditRequest{Template: tc, Mask: m, Seed: 1, Mode: EditCachedY}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDDIMUpdateIntoMatchesDDIMStep(t *testing.T) {
	// ddimUpdateInto takes the step's four square roots once; every
	// element must still be the per-element formula's bits.
	e := newTestEngine(t)
	s := e.Sched
	perElement := func(x, eps float64, t int) float64 {
		st, nt := s.SignalNoise(t)
		x0 := (x - nt*eps) / st
		if t == 0 {
			return x0
		}
		sp, np := s.SignalNoise(t - 1)
		return sp*x0 + np*eps
	}
	rng := tensor.NewRNG(3)
	x := tensor.Randn(rng, testCfg.Tokens(), testCfg.LatentChannels, 1)
	eps := tensor.Randn(rng, x.R, x.C, 1)
	for tt := 0; tt < s.Steps; tt++ {
		for _, rows := range [][]int{nil, {0, 5, 17}} {
			// With rows, eps holds their predictions alone and the rest of
			// dst is left as it was.
			dst, epsIn := tensor.New(x.R, x.C), eps
			updated := make(map[int]bool)
			if rows != nil {
				copy(dst.Data, x.Data)
				epsIn = tensor.GatherRows(eps, rows)
			}
			for _, r := range rows {
				updated[r] = true
			}
			e.ddimUpdateInto(dst, x, epsIn, tt, rows)
			for i, got := range dst.Data {
				want := float32(perElement(float64(x.Data[i]), float64(eps.Data[i]), tt))
				if rows != nil && !updated[i/x.C] {
					want = x.Data[i]
				}
				if math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("t=%d rows=%v element %d: %g, per-element formula %g", tt, rows, i, got, want)
				}
				if step := s.DDIMStep(float64(x.Data[i]), float64(eps.Data[i]), tt); step != perElement(float64(x.Data[i]), float64(eps.Data[i]), tt) {
					t.Fatalf("t=%d element %d: DDIMStep %g, per-element formula %g", tt, i, step, want)
				}
			}
		}
	}
}
