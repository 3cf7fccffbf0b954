package diffusion

import (
	"bytes"
	"errors"
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
	computed.SetDeriveGate(func(int64, bool) bool { return false }, nil)
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

// referenceTrajectory regenerates tc's template with full computation — no
// mask, the template's own prompt — and returns its latents: entry t+1 is
// the one step t starts from, entry 0 the final one. It is what
// trajectoryFor replays from the cache, obtained without reading it.
func referenceTrajectory(t *testing.T, e *Engine, tc *TemplateCache, prompt string) []*tensor.Matrix {
	t.Helper()
	s, err := e.BeginEdit(EditRequest{Template: tc, Prompt: prompt, Mode: EditFull})
	if err != nil {
		t.Fatal(err)
	}
	traj := make([]*tensor.Matrix, e.Sched.Steps+1)
	for {
		traj[s.RemainingSteps()] = s.Latent().Clone()
		if s.Done() {
			return traj
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// offTrajectory returns the first unmasked row of s's latent that is not the
// row of the template trajectory's latent at s's position.
func offTrajectory(s *EditSession, traj []*tensor.Matrix) (row int, off bool) {
	masked := make(map[int]bool, len(s.maskedIdx))
	for _, r := range s.maskedIdx {
		masked[r] = true
	}
	x, want := s.Latent(), traj[s.RemainingSteps()]
	for r := 0; r < x.R; r++ {
		if masked[r] {
			continue
		}
		for j, v := range x.Row(r) {
			if math.Float32bits(v) != math.Float32bits(want.Row(r)[j]) {
				return r, true
			}
		}
	}
	return 0, false
}

// testBackbones returns an engine over each of the three stand-in models and
// over a UNet, which has no lanes, no trajectory and no derived state and
// keeps the all-row step.
func testBackbones(t *testing.T) map[string]*Engine {
	t.Helper()
	engines := map[string]*Engine{"unet": newUNetEngine(t)}
	for _, cfg := range model.AllSimConfigs() {
		e, err := NewEngine(cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		engines[cfg.Name] = e
	}
	return engines
}

// randomRequest draws an edit of tpl: mostly cached-Y, under a random mask
// (one token to all but one), prompt and step policy, now and then with
// bubble-free holes, the recorded-K/V mode when tpl has them (kv), or one of
// the baselines (naive skip, TeaCache, full).
func randomRequest(rng *tensor.RNG, cfg model.Config, tpl *TemplateCache, kv bool) EditRequest {
	prompts := []string{"", "red dress", "a very long prompt with many words"}
	policies := []string{"off", "block", "combined"}
	req := EditRequest{
		Template: tpl, Mask: randomMask(rng, cfg), Prompt: prompts[rng.Intn(len(prompts))],
		Seed: rng.Uint64(), Mode: EditCachedY, Policy: policies[rng.Intn(len(policies))],
	}
	switch r := rng.Intn(12); {
	case r == 0:
		req.Mode, req.Policy = EditNaiveSkip, ""
	case r == 1:
		req.Mode, req.Policy = EditTeaCache, ""
	case r == 2:
		req.Mode = EditFull
	case r <= 4 && kv:
		req.Mode = EditCachedKV
	case r <= 6:
		req.UseCacheBlocks = make([]bool, cfg.NumBlocks)
		for i := range req.UseCacheBlocks {
			req.UseCacheBlocks[i] = rng.Float64() < 0.6
		}
	}
	return req
}

// TestPropertyDerivedEqualsComputed is the determinism contract used as a
// generator: random edits (randomRequest) on all three stand-in models and
// the UNet produce, step by step, the same bits on a template free to derive
// its state — every later block's K/V and, in the unconditional pass, the
// first block's — as on a fresh copy of it, loaded from the on-disk format,
// that never derives. The gate turns refusing, or the state is dropped, in
// the middle of some edits; they keep the copy they began with. After every
// step of a mask-aware edit the latent's unmasked rows are the template
// trajectory's — replayed from the cache (trajectoryFor) and regenerated
// with full computation (referenceTrajectory), which agree bit for bit — and
// at the end the PNGs are equal and the unmasked pixels the template's.
// `make test-levels` runs it at every kernel level.
func TestPropertyDerivedEqualsComputed(t *testing.T) {
	for name, e := range testBackbones(t) {
		t.Run(name, func(t *testing.T) {
			cfg := e.Model.Config()
			withKV, without, tplOut := twoTemplates(t, e)
			ref := referenceTrajectory(t, e, without, "studio photo")
			_, lanes := e.Model.(laneBackbone)
			for _, tc := range []*TemplateCache{withKV, without} {
				traj := e.trajectoryFor(tc)
				if (traj != nil) != lanes {
					t.Fatalf("template has a trajectory: %v, backbone has lanes: %v", traj != nil, lanes)
				}
				for i := range traj {
					if !tensor.Equal(traj[i], ref[i]) {
						t.Fatalf("replayed trajectory entry %d differs from the regenerated one (max |Δ| %g)", i, tensor.MaxAbsDiff(traj[i], ref[i]))
					}
				}
			}
			rng := tensor.NewRNG(uint64(len(cfg.Name)) * 7919)
			// Twelve cases on the 64-token models, four on the 256-token one,
			// whose edits cost 30× as much on the portable kernels.
			for i := 0; i < max(4, 12*64/cfg.Tokens()); i++ {
				req := randomRequest(rng, cfg, nil, false)
				if i == 0 { // every model runs the plain production edit
					req.Mode, req.Policy, req.UseCacheBlocks = EditCachedY, "off", nil
				}
				desc := fmt.Sprintf("case %d (%v, %d of %d tokens, policy %s, holes %v)", i, req.Mode, req.Mask.MaskedCount(), cfg.Tokens(), req.Policy, req.UseCacheBlocks)
				maskAware := req.Mode == EditCachedY || req.Mode == EditCachedKV
				dropAt, refuseAt := -1, -1
				switch rng.Intn(4) {
				case 0:
					dropAt = rng.Intn(cfg.Steps)
				case 1:
					refuseAt = rng.Intn(cfg.Steps)
				}
				withKV.SetDeriveGate(nil, nil)
				req.Template = withKV
				a, err := e.BeginEdit(req)
				if err != nil {
					t.Fatal(err)
				}
				req.Template = without
				b, err := e.BeginEdit(req)
				if err != nil {
					t.Fatal(err)
				}
				if want := lanes && req.Mode == EditCachedY; (a.derived != nil) != want || b.derived != nil {
					t.Fatalf("%s: sessions derived %v / %v, want %v / false", desc, a.derived != nil, b.derived != nil, want)
				}
				for step := 0; !a.Done(); step++ {
					switch step {
					case dropAt:
						withKV.DropDerived()
					case refuseAt:
						withKV.SetDeriveGate(func(int64, bool) bool { return false }, nil)
					}
					if _, err := a.Step(); err != nil {
						t.Fatal(err)
					}
					if _, err := b.Step(); err != nil {
						t.Fatal(err)
					}
					if !tensor.Equal(a.Latent(), b.Latent()) {
						t.Fatalf("%s step %d: latent differs from the computed path (max |Δ| %g)", desc, step, tensor.MaxAbsDiff(a.Latent(), b.Latent()))
					}
					if r, off := offTrajectory(a, ref); off && maskAware {
						t.Fatalf("%s step %d: unmasked row %d has left the template trajectory", desc, step, r)
					}
					if i == 0 && lanes {
						// All blocks cached, nothing reused: every block after
						// the first is given its K/V in every pass, the first in
						// the unconditional pass alone.
						wantKV := (cfg.NumBlocks - 1) * a.passes
						if cfg.GuidanceScale > 0 {
							wantKV++
						}
						if a.LastStepBlocksKV() != wantKV || b.LastStepBlocksKV() != 0 {
							t.Fatalf("%s: %d blocks given K/V (the computed path %d), want %d (0)", desc, a.LastStepBlocksKV(), b.LastStepBlocksKV(), wantKV)
						}
					}
				}
				got, want := mustResult(t, a), mustResult(t, b)
				if !bytes.Equal(mustPNG(t, got.Image), mustPNG(t, want.Image)) {
					t.Fatalf("%s: PNG bytes differ", desc)
				}
				if got.BlocksReused != want.BlocksReused || got.StepsComputed != want.StepsComputed {
					t.Fatalf("%s: reused %d blocks over %d steps, the computed path %d over %d", desc, got.BlocksReused, got.StepsComputed, want.BlocksReused, want.StepsComputed)
				}
				if ly, lx, ok := unmaskedDiffers(e, req.Mask, got.Image, tplOut); ok && maskAware {
					t.Fatalf("%s: unmasked cell (%d,%d) is not the template's", desc, ly, lx)
				}
			}
			if without.DerivedBytes() != 0 {
				t.Fatalf("the withheld template holds %d derived bytes", without.DerivedBytes())
			}
			if withKV.SizeBytes() != without.SizeBytes() {
				t.Fatalf("SizeBytes moved with derivation: %d vs %d", withKV.SizeBytes(), without.SizeBytes())
			}
			withKV.SetDeriveGate(nil, nil)
			s, err := e.BeginEdit(EditRequest{Template: withKV, Mask: randomMask(rng, cfg), Seed: 1, Mode: EditCachedY})
			if err != nil {
				t.Fatal(err)
			}
			if !lanes {
				if withKV.DerivedBytes() != 0 {
					t.Fatalf("a backbone without lanes derived %d bytes", withKV.DerivedBytes())
				}
				return
			}
			// 2·(B−1)/B of the Y bytes, 2/B more of the unconditional pass's
			// for its first block, and not counted among them.
			want := withKV.SizeBytes() * 2 * int64(cfg.NumBlocks-1) / int64(cfg.NumBlocks)
			if cfg.GuidanceScale > 0 {
				want += withKV.SizeBytes() / 2 * 2 / int64(cfg.NumBlocks)
			}
			if withKV.DerivedBytes() != want {
				t.Fatalf("derived K/V is %d bytes, want %d", withKV.DerivedBytes(), want)
			}
			for _, st := range s.derived.cond {
				if st.Blocks[0].V != nil {
					t.Fatal("the prompted pass has a derived first block")
				}
			}
			for _, st := range s.derived.uncond {
				if st.Blocks[0].V == nil {
					t.Fatal("the unprompted pass has no derived first block")
				}
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
		for p, steps := range [][]*model.DerivedStep{s.derived.cond, s.derived.uncond} {
			for _, st := range steps {
				for i, blk := range st.Blocks {
					switch {
					case s.kvBlocks[p][i]:
						read++
					case blk.V != nil:
						// V alone: the keys are packed away, and a block that
						// read one would read the other.
						for j := range blk.V.Data {
							blk.V.Data[j] = float32(math.NaN())
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
		// exactly when it and block i−1 are cached ones; the first block
		// when it is one, in the pass that adds no prompt.
		for p := range s.kvBlocks {
			for i := 1; i < cfg.NumBlocks; i++ {
				if prev, cur := use[i-1] || i-1 == cfg.NumBlocks-1, use[i] || i == cfg.NumBlocks-1; s.kvBlocks[p][i] != (prev && cur) {
					t.Fatalf("UseCacheBlocks %v: pass %d block %d takes derived K/V: %v", use, p, i, s.kvBlocks[p][i])
				}
			}
		}
		if s.kvBlocks[0][0] || s.kvBlocks[1][0] != use[0] {
			t.Fatalf("UseCacheBlocks %v: the first block takes derived K/V: prompted pass %v, unprompted %v", use, s.kvBlocks[0][0], s.kvBlocks[1][0])
		}
	}
}

// TestDerivedGateAndDrop: the gate is asked once per derivation with the
// bytes at stake and whether the edit reads Y; a refusal leaves the computed
// path and is asked again by the next edit; a drop frees the state and
// in-flight sessions keep theirs.
func TestDerivedGateAndDrop(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	req := EditRequest{Template: tc, Mask: mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 3, 3), Prompt: "p", Seed: 3, Mode: EditCachedY}
	asked, grant, formAsked := 0, false, false
	var bytesAsked int64
	tc.SetDeriveGate(func(b int64, form bool) bool { asked++; bytesAsked, formAsked = b, form; return grant }, nil)
	for i := 1; i <= 2; i++ {
		policy := []string{"", PolicyPresets()[0].Name}[i-1]
		req.Policy = policy
		s, err := e.BeginEdit(req)
		if err != nil {
			t.Fatal(err)
		}
		if s.derived != nil || asked != i || tc.DerivedBytes() != 0 {
			t.Fatalf("refused derivation %d: session derived %v, asked %d times, template holds %d", i, s.derived != nil, asked, tc.DerivedBytes())
		}
		if formAsked != (policy == "") {
			t.Fatalf("an edit with step policy %q asked the gate for its derived form: %v", policy, formAsked)
		}
	}
	req.Policy = ""
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

// TestPropertyDerivedFormEqualsComputed: a template's derived form — built
// in memory (DerivedForm) and read back from the on-disk format — serves
// every random edit that does not read Y (ReadsY) with the bits of the
// computed path on the template itself, and refuses every edit that does
// with ErrNoY. The form holds no Y, counts its K/V and trajectory in
// SizeBytes and the template's Y in CacheBytes, keeps its state through
// DropDerived and SetDeriveGate, and
// serializes as version 4, the Y form still as version 2. `make
// test-levels` runs it at every kernel level.
func TestPropertyDerivedFormEqualsComputed(t *testing.T) {
	for name, e := range testBackbones(t) {
		t.Run(name, func(t *testing.T) {
			cfg := e.Model.Config()
			tc, computed, _ := twoTemplates(t, e)
			if tc.DerivedForm() != nil {
				t.Fatal("a template with no derived state has a derived form")
			}
			rng := tensor.NewRNG(uint64(len(cfg.Name)) * 104729)
			if _, err := e.Edit(EditRequest{Template: tc, Mask: randomMask(rng, cfg), Seed: 1, Mode: EditCachedY}); err != nil {
				t.Fatal(err)
			}
			form := tc.DerivedForm()
			if _, lanes := e.Model.(laneBackbone); !lanes {
				if form != nil {
					t.Fatal("a backbone without lanes has a derived form")
				}
				return
			}
			if form == nil || !form.IsDerivedForm() || tc.IsDerivedForm() || form.DerivedForm() != form {
				t.Fatal("no derived form after a derivation")
			}
			if got, want := form.SizeBytes(), tc.DerivedBytes()+tc.TrajectoryBytes(); got != want || form.DerivedBytes() != tc.DerivedBytes() {
				t.Fatalf("derived form counts %d bytes (%d derived), want %d (%d)", got, form.DerivedBytes(), want, tc.DerivedBytes())
			}
			if form.CacheBytes() != tc.SizeBytes() || tc.CacheBytes() != tc.SizeBytes() {
				t.Fatalf("derived form's cache is %d bytes, the template's %d", form.CacheBytes(), tc.SizeBytes())
			}
			var visited int64
			form.Tensors(func(data []float32) { visited += 4 * int64(len(data)) })
			if want := form.SizeBytes() + 4*int64(len(form.Z0.Data)+len(form.Noise.Data)+len(form.Cond)); visited != want {
				t.Fatalf("Tensors visits %d bytes of the form, want %d", visited, want)
			}
			var yBuf, formBuf bytes.Buffer
			if err := tc.Serialize(&yBuf); err != nil {
				t.Fatal(err)
			}
			if err := form.Serialize(&formBuf); err != nil {
				t.Fatal(err)
			}
			if v := yBuf.Bytes()[4]; v != cacheVersion {
				t.Fatalf("the Y form is written as version %d", v)
			}
			if v := formBuf.Bytes()[4]; v != derivedVersion {
				t.Fatalf("the derived form is written as version %d", v)
			}
			read, err := ReadTemplateCache(bytes.NewReader(formBuf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := read.Serialize(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), formBuf.Bytes()) || read.SizeBytes() != form.SizeBytes() || read.CacheBytes() != form.CacheBytes() {
				t.Fatal("the derived form does not survive its on-disk format")
			}
			for n := 0; n < formBuf.Len(); n += 1 + formBuf.Len()/97 {
				if _, err := ReadTemplateCache(bytes.NewReader(formBuf.Bytes()[:n])); err == nil {
					t.Fatalf("a derived form cut to %d of %d bytes was read", n, formBuf.Len())
				}
			}
			short := tc.DerivedForm()
			short.ybytes--
			var shortBuf bytes.Buffer
			if err := short.Serialize(&shortBuf); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadTemplateCache(bytes.NewReader(shortBuf.Bytes())); err == nil {
				t.Fatal("a derived form recording less cache than its steps held was read")
			}
			read.DropDerived()
			read.SetDeriveGate(func(int64, bool) bool { return false }, nil)
			if read.DerivedBytes() != form.DerivedBytes() {
				t.Fatal("a derived form gave up its state")
			}
			served, refused := 0, 0
			for i := 0; i < max(6, 12*64/cfg.Tokens()); i++ {
				req := randomRequest(rng, cfg, computed, false)
				if i < 2 { // the plain production edit, then one with a policy
					req.Mode, req.Policy, req.UseCacheBlocks = EditCachedY, []string{"off", "block"}[i], nil
				}
				want, err := e.Edit(req)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []*TemplateCache{form, read} {
					req.Template = f
					got, err := e.Edit(req)
					desc := fmt.Sprintf("case %d (%v, policy %s, holes %v)", i, req.Mode, req.Policy, req.UseCacheBlocks)
					if e.ReadsY(req) {
						if !errors.Is(err, ErrNoY) {
							t.Fatalf("%s reads Y, and on the derived form: %v", desc, err)
						}
						refused++
						continue
					}
					served++
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					if !tensor.Equal(got.FinalLatent, want.FinalLatent) {
						t.Fatalf("%s: the derived form's edit differs from the computed path (max |Δ| %g)", desc, tensor.MaxAbsDiff(got.FinalLatent, want.FinalLatent))
					}
				}
			}
			if served == 0 || refused == 0 {
				t.Fatalf("the derived form served %d edits and refused %d", served, refused)
			}
		})
	}
}

// TestSlabPoolRecyclesDerivedForms: a derived form read with a pool gives
// its storage back when its last hold ends — the reader's and those of the
// edits begun on it, not before — and the next read of the same shape
// reuses it, every float overwritten: the form read is the one written, and
// edits on it keep their bits.
func TestSlabPoolRecyclesDerivedForms(t *testing.T) {
	e := newTestEngine(t)
	tc, _ := testTemplate(t, e, false)
	req := EditRequest{Template: tc, Mask: mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 3, 4), Prompt: "p", Seed: 5, Mode: EditCachedY}
	want, err := e.Edit(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tc.DerivedForm().Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	pool := NewSlabPool(1 << 30)
	a, err := ReadTemplateCacheWith(bytes.NewReader(buf.Bytes()), pool)
	if err != nil {
		t.Fatal(err)
	}
	req.Template = a
	s, err := e.BeginEdit(req)
	if err != nil {
		t.Fatal(err)
	}
	a.Release() // the reader's: the session still holds it
	if pool.bytes != 0 {
		t.Fatalf("storage recycled under a running session: %d bytes free", pool.bytes)
	}
	for !s.Done() {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !tensor.Equal(s.Latent(), want.FinalLatent) || pool.bytes != a.DerivedBytes() {
		t.Fatalf("after the session: latent equal %v, %d bytes free, want %d", tensor.Equal(s.Latent(), want.FinalLatent), pool.bytes, a.DerivedBytes())
	}
	for _, slab := range a.slabs { // what the next read must overwrite
		for i := range slab {
			slab[i] = float32(math.NaN())
		}
	}
	b, err := ReadTemplateCacheWith(bytes.NewReader(buf.Bytes()), pool)
	if err != nil {
		t.Fatal(err)
	}
	reused := map[*float32]bool{}
	for _, slab := range a.slabs {
		reused[&slab[0]] = true
	}
	for _, slab := range b.slabs {
		if !reused[&slab[0]] {
			t.Fatalf("the second read did not reuse the first's storage (%d bytes free)", pool.bytes)
		}
	}
	var again bytes.Buffer
	if err := b.Serialize(&again); err != nil {
		t.Fatal(err)
	}
	req.Template = b
	got, err := e.Edit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) || !tensor.Equal(got.FinalLatent, want.FinalLatent) {
		t.Fatal("a form read into recycled storage differs from the one written")
	}
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("a release without a hold went unnoticed")
		}
	}()
	b.Release()
}
