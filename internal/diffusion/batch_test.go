package diffusion

import (
	"bytes"
	"fmt"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/tensor"
)

// batchTemplate is one template of the stacked-step property test, the image
// its unmasked pixels must reproduce and the trajectory its unmasked latent
// rows must follow.
type batchTemplate struct {
	tc   *TemplateCache
	out  *img.Image
	traj []*tensor.Matrix
	kv   bool // recorded with K/V: EditCachedKV can run on it
}

// TestPropertyStackedEqualsSequential is the determinism contract used as a
// generator: random batches of 1–8 sessions — random masks (one token to all
// but one, blob and scattered), each member at its own timestep, on one of
// two templates (one with recorded and derived K/V, one whose gate refuses)
// under its own prompt, step policy and mode (randomRequest: bubble-free
// holes, recorded K/V, naive skip, TeaCache, full), one member aborted
// mid-run, the derived state dropped and the gates swapped at random turns —
// stepped together by StepBatch produce, member by member and step by step,
// the bits of the same sessions stepped one at a time: the latent after
// every step, the per-step block counts, the final PNG. After every step the
// unmasked latent rows of every mask-aware member are the template
// trajectory's, and at the end its unmasked pixels the template's. On the
// three stand-in models and the UNet, whose lanes are forwarded one by one
// over all rows. `make test-levels` runs it at every kernel level.
func TestPropertyStackedEqualsSequential(t *testing.T) {
	for name, e := range testBackbones(t) {
		t.Run(name, func(t *testing.T) {
			cfg := e.Model.Config()
			_, lanes := e.Model.(laneBackbone)
			h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
			var tpls []batchTemplate
			for id, kv := range []bool{lanes, false} { // the UNet has no recorded-K/V mode
				prompt := fmt.Sprintf("template %d", id)
				tc, out, err := e.PrepareTemplate(uint64(20+id), img.SynthTemplate(uint64(20+id), h, w), prompt, kv)
				if err != nil {
					t.Fatal(err)
				}
				tpls = append(tpls, batchTemplate{tc, out, referenceTrajectory(t, e, tc, prompt), kv})
			}
			refuse := func(int64, bool) bool { return false }
			tpls[1].tc.SetDeriveGate(refuse, nil) // its cached-Y lanes compute K/V

			rng := tensor.NewRNG(uint64(len(cfg.Name)) * 104729)
			// Four batches on the 64-token models, the first of them of eight;
			// one of three on the 256-token one, whose steps cost 30× as much
			// on the portable kernels.
			for c := 0; c < max(1, 4*64/cfg.Tokens()); c++ {
				members := 1 + rng.Intn(8)
				if c == 0 {
					members = max(3, 8*64/cfg.Tokens())
				}
				var reqs []EditRequest
				var tplOf []batchTemplate
				for k := 0; k < members; k++ {
					tpl := tpls[rng.Intn(len(tpls))]
					reqs, tplOf = append(reqs, randomRequest(rng, cfg, tpl.tc, tpl.kv)), append(tplOf, tpl)
				}
				name := fmt.Sprintf("case %d (%d members)", c, members)
				stacked, alone := beginAll(t, e, reqs), beginAll(t, e, reqs)
				// Members start at different timesteps.
				for k := range reqs {
					for n := rng.Intn(cfg.Steps); n > 0; n-- {
						for _, s := range []*EditSession{stacked[k], alone[k]} {
							if _, err := s.Step(); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				abort, abortAt := rng.Intn(members), 1+rng.Intn(cfg.Steps)
				for turn := 0; ; turn++ {
					// Sessions in flight keep the derived state they began with.
					switch rng.Intn(6) {
					case 0:
						tpls[0].tc.DropDerived()
					case 1:
						tpls[0].tc.SetDeriveGate(refuse, nil)
						tpls[1].tc.SetDeriveGate(nil, nil)
					}
					var batch []*EditSession
					var idx []int
					for k, s := range stacked {
						if !s.Done() && !(k == abort && turn >= abortAt) {
							batch, idx = append(batch, s), append(idx, k)
						}
					}
					if len(batch) == 0 {
						break
					}
					if errs := e.StepBatch(batch); errs != nil {
						t.Fatalf("%s turn %d: %v", name, turn, errs)
					}
					for _, k := range idx {
						a, b := stacked[k], alone[k]
						if _, err := b.Step(); err != nil {
							t.Fatal(err)
						}
						who := fmt.Sprintf("%s turn %d member %d (%v, %d tokens, policy %s)", name, turn, k, reqs[k].Mode, reqs[k].Mask.MaskedCount(), b.Policy())
						if !tensor.Equal(a.Latent(), b.Latent()) {
							t.Fatalf("%s: latent differs from the member stepped alone (max |Δ| %g)", who, tensor.MaxAbsDiff(a.Latent(), b.Latent()))
						}
						ac, ar := a.LastStepBlocks()
						bc, br := b.LastStepBlocks()
						if ac != bc || ar != br || a.LastStepBlocksKV() != b.LastStepBlocksKV() || a.LastStepLanes() != b.LastStepLanes() {
							t.Fatalf("%s: computed/reused/kv blocks %d/%d/%d, alone %d/%d/%d", who, ac, ar, a.LastStepBlocksKV(), bc, br, b.LastStepBlocksKV())
						}
						if m := reqs[k].Mode; m != EditCachedY && m != EditCachedKV {
							continue
						}
						if r, off := offTrajectory(a, tplOf[k].traj); off {
							t.Fatalf("%s: unmasked row %d has left the template trajectory", who, r)
						}
					}
				}
				tpls[0].tc.SetDeriveGate(nil, nil)
				tpls[1].tc.SetDeriveGate(refuse, nil)
				for k, a := range stacked {
					if !a.Done() {
						continue // the aborted member
					}
					got, want := mustResult(t, a), mustResult(t, alone[k])
					if got.BlocksReused != want.BlocksReused || got.StepsComputed != want.StepsComputed {
						t.Fatalf("%s member %d: reused %d blocks over %d steps, alone %d over %d", name, k, got.BlocksReused, got.StepsComputed, want.BlocksReused, want.StepsComputed)
					}
					if !bytes.Equal(mustPNG(t, got.Image), mustPNG(t, want.Image)) {
						t.Fatalf("%s member %d: PNG bytes differ", name, k)
					}
					if m := reqs[k].Mode; m != EditCachedY && m != EditCachedKV {
						continue
					}
					if ly, lx, ok := unmaskedDiffers(e, reqs[k].Mask, got.Image, tplOf[k].out); ok {
						t.Fatalf("%s member %d: unmasked cell (%d,%d) is not the template's", name, k, ly, lx)
					}
				}
			}
		})
	}
}

func beginAll(t *testing.T, e *Engine, reqs []EditRequest) []*EditSession {
	t.Helper()
	var out []*EditSession
	for _, req := range reqs {
		s, err := e.BeginEdit(req)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func mustResult(t *testing.T, s *EditSession) *EditResult {
	t.Helper()
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustPNG(t *testing.T, im *img.Image) []byte {
	t.Helper()
	b, err := img.EncodePNG(im)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// unmaskedDiffers returns the first unmasked latent cell whose pixels in got
// are not want's.
func unmaskedDiffers(e *Engine, m *mask.Mask, got, want *img.Image) (ly, lx int, differs bool) {
	cfg, patch := e.Model.Config(), e.Codec.Patch
	for ly := 0; ly < cfg.LatentH; ly++ {
		for lx := 0; lx < cfg.LatentW; lx++ {
			if m.At(ly, lx) {
				continue
			}
			for p := 0; p < patch; p += 3 {
				r0, g0, b0 := want.At(ly*patch+p, lx*patch+p)
				r1, g1, b1 := got.At(ly*patch+p, lx*patch+p)
				if r0 != r1 || g0 != g1 || b0 != b1 {
					return ly, lx, true
				}
			}
		}
	}
	return 0, 0, false
}

// TestStepBatchErrors: a member that cannot step — finished, or another
// engine's — gets its own error and the rest of the batch steps.
func TestStepBatchErrors(t *testing.T) {
	e := newTestEngine(t)
	tpl, _ := testTemplate(t, e, false)
	req := EditRequest{Template: tpl, Mask: mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 3, 3), Prompt: "p", Seed: 3, Mode: EditCachedY}
	ss := beginAll(t, e, []EditRequest{req, req, req})
	for !ss[1].Done() {
		if _, err := ss[1].Step(); err != nil {
			t.Fatal(err)
		}
	}
	other := newTestEngine(t)
	foreign := beginAll(t, other, []EditRequest{req})[0]
	errs := e.StepBatch([]*EditSession{ss[0], ss[1], foreign, ss[2]})
	if len(errs) != 4 || errs[0] != nil || errs[1] == nil || errs[2] == nil || errs[3] != nil {
		t.Fatalf("errors %v, want one each for the finished and the foreign member", errs)
	}
	if ss[0].RemainingSteps() != testCfg.Steps-1 || ss[2].RemainingSteps() != testCfg.Steps-1 || foreign.RemainingSteps() != testCfg.Steps {
		t.Fatalf("remaining steps %d, %d, foreign %d", ss[0].RemainingSteps(), ss[2].RemainingSteps(), foreign.RemainingSteps())
	}
	if !tensor.Equal(ss[0].Latent(), ss[2].Latent()) {
		t.Fatal("identical requests diverged in one batch")
	}
}
