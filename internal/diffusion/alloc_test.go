package diffusion

import (
	"runtime"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
)

// steadyStateStep builds the per-step closure the serving plane runs: one
// StepBatch over a session per entry of masks (a nil entry is an unmasked
// session) — the first step of every session, again and again. A nil tpl
// prepares one; derive says whether a cached-Y session may use derived K/V.
func steadyStateStep(t *testing.T, cfg model.Config, mode EditMode, masks [][]int, tpl *TemplateCache, derive bool) func() {
	t.Helper()
	e, err := NewEngine(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if tpl == nil {
		h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
		im := img.SynthTemplate(7, h, w)
		tpl, _, err = e.PrepareTemplate(7, im, "template", mode == EditCachedKV)
		if err != nil {
			t.Fatal(err)
		}
	}
	tpl.SetDeriveGate(func(int64, bool) bool { return derive }, nil)
	var sessions []*EditSession
	for k, maskedIdx := range masks {
		var m *mask.Mask
		if maskedIdx != nil {
			m = mask.New(cfg.LatentH, cfg.LatentW)
			for _, i := range maskedIdx {
				m.Bits[i] = true
			}
		}
		s, err := e.BeginEdit(EditRequest{Template: tpl, Mask: m, Prompt: "edit prompt", Seed: 99 + uint64(k), Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if (s.derived != nil) != (derive && mode == EditCachedY) {
			t.Fatalf("mode %v, derive %v: session has derived K/V: %v", mode, derive, s.derived != nil)
		}
		sessions = append(sessions, s)
	}
	return func() {
		if errs := e.StepBatch(sessions); errs != nil {
			t.Fatal(errs)
		}
		for _, s := range sessions {
			s.t++
		}
	}
}

// TestSteadyStateDenoiseStepZeroAllocs is the tentpole's memory-layer
// acceptance test: once the arena has grown to the step's working set, a
// full-computation denoising step performs zero heap allocations.
func TestSteadyStateDenoiseStepZeroAllocs(t *testing.T) {
	step := steadyStateStep(t, testCfg, EditFull, [][]int{nil}, nil, false)
	// Two warm cycles: the first records the arena demand, the second runs
	// fully slab-backed.
	step()
	step()
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("steady-state full denoise step: %v allocs/op, want 0", n)
	}
}

// TestSteadyStateGuidedStepZeroAllocs covers the classifier-free-guidance
// dual pass (two ForwardSteps plus guideInto per step).
func TestSteadyStateGuidedStepZeroAllocs(t *testing.T) {
	cfg := testCfg
	cfg.Name = "difftest-guided"
	cfg.GuidanceScale = 1.5
	step := steadyStateStep(t, cfg, EditFull, [][]int{nil}, nil, false)
	step()
	step()
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("steady-state guided denoise step: %v allocs/op, want 0", n)
	}
}

// TestSteadyStateMaskedStepZeroAllocs pins the mask-aware paths. The
// gather/scatter bookkeeping is arena-backed and only the Record-free
// cached path is exercised, so they too must be allocation-free once warm
// — at every masked-row count class the GEMM distinguishes: remainder
// rows only (1, 3), full 4-row tiles only (4), and both (7) — with K/V
// computed, derived, and recorded, and as one StepBatch of 1, 2 and 4
// members with different masks.
func TestSteadyStateMaskedStepZeroAllocs(t *testing.T) {
	e := newTestEngine(t)
	tpl, _ := testTemplate(t, e, true)
	masks := [][]int{{8}, {1, 7, 8}, {1, 7, 8, 14}, {1, 2, 7, 8, 13, 14, 20}}
	for _, c := range []struct {
		mode   EditMode
		derive bool
	}{{EditCachedY, false}, {EditCachedY, true}, {EditCachedKV, false}} {
		for _, members := range []int{1, 2, 4} {
			for first := 0; first < len(masks); first += members {
				step := steadyStateStep(t, testCfg, c.mode, masks[first:first+members], tpl, c.derive)
				step()
				step()
				if n := testing.AllocsPerRun(10, step); n != 0 {
					t.Fatalf("steady-state %v batch step (derived %v), %d members from mask %d: %v allocs/op, want 0", c.mode, c.derive, members, first, n)
				}
			}
		}
	}
}

// TestSteadyStatePolicyStepZeroAllocs pins the adaptive step-policy path:
// a full session step — plan, denoise with residual reuse and updates,
// observe, DDIM update — stays allocation-free once the arena is warm and
// the per-session residual caches exist. Exercised on the masked cached-Y
// mode with every preset, warmed far enough that reuse actually happens.
func TestSteadyStatePolicyStepZeroAllocs(t *testing.T) {
	for _, preset := range PolicyPresets() {
		t.Run(preset.Name, func(t *testing.T) {
			e := newTestEngine(t)
			tpl, _ := testTemplate(t, e, false)
			m := mask.Rect(testCfg.LatentH, testCfg.LatentW, 1, 1, 4, 4)
			s, err := e.BeginEdit(EditRequest{
				Template: tpl, Mask: m, Prompt: "edit prompt", Seed: 5,
				Mode: EditCachedY, Policy: preset.Name,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Warm up: two steps grow the arena and populate the residuals.
			for i := 0; i < 2 && !s.Done(); i++ {
				if _, err := s.Step(); err != nil {
					t.Fatal(err)
				}
			}
			var stepErr error
			n := testing.AllocsPerRun(1, func() {
				if s.Done() {
					return
				}
				if _, err := s.Step(); err != nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if n != 0 {
				t.Fatalf("steady-state %s policy step: %v allocs/op, want 0", preset.Name, n)
			}
		})
	}
}

// TestPrepareTemplateAllocatesTheTemplate pins what a cache-Y prepare
// leaves behind: the Y matrices it returns and little else. K and V are
// copied only when asked for — copying them for every block and dropping
// them afterwards was twice the template in garbage per prepare.
func TestPrepareTemplateAllocatesTheTemplate(t *testing.T) {
	cfg := testCfg
	cfg.Name = "difftest-guided"
	cfg.GuidanceScale = 1.5
	e, err := NewEngine(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	im := img.SynthTemplate(7, h, w)
	var tc *TemplateCache
	prepare := func(recordKV bool) func() {
		return func() {
			if tc, _, err = e.PrepareTemplate(7, im, "template", recordKV); err != nil {
				t.Fatal(err)
			}
		}
	}
	prepare(false)() // warms the engine's arena
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	prepare(false)()
	runtime.ReadMemStats(&after)
	blocks := int64(cfg.NumBlocks * cfg.Steps * 2) // two guidance passes
	if want := blocks * int64(cfg.Tokens()*cfg.Hidden*4); tc.SizeBytes() != want {
		t.Fatalf("template holds %d bytes, want %d (Y only)", tc.SizeBytes(), want)
	}
	if got, limit := int64(after.TotalAlloc-before.TotalAlloc), tc.SizeBytes()*3/2; got > limit {
		t.Fatalf("PrepareTemplate(recordKV=false) allocated %d bytes for a %d-byte template (limit %d)", got, tc.SizeBytes(), limit)
	}
	// Per block: Y's header and data. K and V would be four more.
	withoutKV := testing.AllocsPerRun(3, prepare(false))
	withKV := testing.AllocsPerRun(3, prepare(true))
	if perBlock := (withKV - withoutKV) / float64(blocks); perBlock != 4 {
		t.Fatalf("recording K/V costs %.2f allocations per block, want 4 (and none without it: %v vs %v)", perBlock, withKV, withoutKV)
	}
}
