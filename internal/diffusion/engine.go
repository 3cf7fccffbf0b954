package diffusion

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// Backbone is the denoiser contract the engine drives: the flat
// transformer stack (model.Model) and the multi-resolution UNet variant
// (model.UNet) both satisfy it. Config reports the base latent grid and
// the *flattened* block count (per-block Modes and cached activations are
// indexed in flattened execution order).
type Backbone interface {
	Config() model.Config
	ForwardStep(latent *tensor.Matrix, t int, cond []float32, opts model.StepOptions) (*tensor.Matrix, error)
}

// Engine runs the numeric denoising loop for one backbone. It is the
// real-math counterpart of the FlashPS worker's inference engine: all
// quality experiments (Table 2, Fig 1, Fig 6, Fig 13) run through it.
//
// Each denoising step (and each template preparation) borrows a kernel
// workspace (tensor.Arena) from the engine's free list, so steady-state
// denoise steps perform zero heap allocations while concurrent Edit calls
// stay safe. The list grows to the number of borrowers ever in flight at
// once — steps running, not sessions open — and hands back the most
// recently used workspace first, the one still warm in cache.
type Engine struct {
	Model Backbone
	Codec *Codec
	Sched *Schedule

	wsMu   sync.Mutex
	wsFree []*stepWS
}

// stepWS is a kernel workspace: the arena the kernels' intermediates come
// from, and the lanes of the batch step that borrowed it.
type stepWS struct {
	arena *tensor.Arena
	lanes []model.Lane
}

// acquireWS borrows an empty workspace.
func (e *Engine) acquireWS() *stepWS {
	e.wsMu.Lock()
	defer e.wsMu.Unlock()
	if n := len(e.wsFree); n > 0 {
		ws := e.wsFree[n-1]
		e.wsFree = e.wsFree[:n-1]
		return ws
	}
	return &stepWS{arena: tensor.NewArena()}
}

// releaseWS returns a workspace to the free list. The arena is reset first
// so no caller observes a peer's intermediates, and the lanes are cleared
// so an idle workspace pins no session's template.
func (e *Engine) releaseWS(ws *stepWS) {
	ws.arena.Reset()
	clear(ws.lanes)
	e.wsMu.Lock()
	e.wsFree = append(e.wsFree, ws)
	e.wsMu.Unlock()
}

// NewEngine builds an engine over the flat transformer backbone for cfg,
// with deterministic weights from seed and a patch-8 codec.
func NewEngine(cfg model.Config, seed uint64) (*Engine, error) {
	m, err := model.New(cfg, seed)
	if err != nil {
		return nil, err
	}
	return NewEngineWith(m)
}

// NewEngineWith builds an engine over an existing backbone.
func NewEngineWith(b Backbone) (*Engine, error) {
	cfg := b.Config()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	codec, err := NewCodec(8, cfg.LatentChannels)
	if err != nil {
		return nil, err
	}
	return &Engine{Model: b, Codec: codec, Sched: NewSchedule(cfg.Steps)}, nil
}

// TemplateCache holds everything FlashPS caches for one image template: the
// clean latent, the template's initial noise (so edit requests share the
// unmasked trajectory), and the per-step per-block activations recorded
// during the template's full-computation pass (§2.2 "reusability of the
// templates").
type TemplateCache struct {
	TemplateID uint64
	Z0         *tensor.Matrix           // clean template latent
	Noise      *tensor.Matrix           // template initial noise ε_T
	Steps      []*model.StepActivations // indexed by timestep t (conditional pass)
	// UncondSteps holds the unconditional pass's activations when the
	// model runs classifier-free guidance (nil otherwise).
	UncondSteps []*model.StepActivations
	Cond        []float32 // conditioning used for the template pass

	// Derived state (derived.go). deriveMu serializes derivations; traj, the
	// replayed latent trajectory, is written holding both locks and read
	// holding either. dmu guards the fields below it and is never held
	// across a call out.
	deriveMu sync.Mutex
	traj     []*tensor.Matrix
	dmu      sync.Mutex
	derived  *derivedKV
	epoch    uint64 // bumped by every drop
	gate     func(bytes int64, form bool) bool
	kept     func()
	// form marks a derived form (DerivedForm): traj and derived are given
	// at construction and never dropped, and Steps hold no Y; ybytes is
	// the SizeBytes of the template it was derived from (CacheBytes).
	form   bool
	ybytes int64
	// A derived form read into a pool's storage (ReadTemplateCacheWith):
	// its slabs go back to the pool when the last of its holds ends.
	pool  *SlabPool
	slabs [][]float32
	holds atomic.Int32
}

// CacheBytes returns the size of the template's activation cache: SizeBytes
// for a template with its Y, and for a derived form that of the template it
// was derived from, whose Y it stands in for.
func (tc *TemplateCache) CacheBytes() int64 {
	if tc.form {
		return tc.ybytes
	}
	return tc.SizeBytes()
}

// SizeBytes returns the total size of the cached activations in bytes
// (float32 Y matrices across all steps and blocks; K/V add 2× more when
// recorded). Derived K/V a template derives is not part of it (see
// DerivedBytes); a derived form, which holds no Y, counts what it holds
// instead: its derived K/V and latent trajectory.
func (tc *TemplateCache) SizeBytes() int64 {
	var total int64
	if tc.form {
		total = tc.derived.bytes + tc.TrajectoryBytes()
	}
	for _, steps := range [][]*model.StepActivations{tc.Steps, tc.UncondSteps} {
		for _, st := range steps {
			if st == nil {
				continue
			}
			for _, b := range st.Blocks {
				if b.Y != nil {
					total += int64(len(b.Y.Data)) * 4
				}
				if b.K != nil {
					total += int64(len(b.K.Data)) * 4
				}
				if b.V != nil {
					total += int64(len(b.V.Data)) * 4
				}
			}
		}
	}
	return total
}

// Tensors calls visit with every tensor the template holds, in a fixed
// order: the two latents, the activations step by step (each block's Y, K
// and V, the conditional pass first), a derived form's trajectory and
// derived K/V (each block's packed keys, then its values, the conditional
// pass first), and the conditioning last.
func (tc *TemplateCache) Tensors(visit func(data []float32)) {
	visit(tc.Z0.Data)
	visit(tc.Noise.Data)
	for _, steps := range [][]*model.StepActivations{tc.Steps, tc.UncondSteps} {
		for _, st := range steps {
			if st == nil {
				continue
			}
			for _, b := range st.Blocks {
				for _, m := range []*tensor.Matrix{b.Y, b.K, b.V} {
					if m != nil {
						visit(m.Data)
					}
				}
			}
		}
	}
	if tc.form {
		for _, m := range tc.traj {
			visit(m.Data)
		}
		for _, steps := range [][]*model.DerivedStep{tc.derived.cond, tc.derived.uncond} {
			for _, st := range steps {
				for _, b := range st.Blocks {
					if b.V != nil {
						visit(b.K.Matrix().Data)
						visit(b.V.Data)
					}
				}
			}
		}
	}
	visit(tc.Cond)
}

// EditMode selects the inference strategy for an edit request.
type EditMode int

const (
	// EditFull regenerates with full computation (the Diffusers baseline
	// and the quality ground truth of Table 2).
	EditFull EditMode = iota
	// EditCachedY is FlashPS's mask-aware editing with cached block
	// outputs (Fig 5-Bottom).
	EditCachedY
	// EditCachedKV is the Fig 7 alternative reusing cached K/V.
	EditCachedKV
	// EditNaiveSkip computes the masked region without global context
	// (Fig 1 rightmost; also how the FISEdit-sim baseline degrades).
	EditNaiveSkip
	// EditTeaCache reuses the previous step's noise prediction when the
	// timestep embedding has drifted less than a threshold (the TeaCache
	// baseline's latency-quality tradeoff).
	EditTeaCache
)

// String implements fmt.Stringer.
func (m EditMode) String() string {
	switch m {
	case EditFull:
		return "full"
	case EditCachedY:
		return "cached-y"
	case EditCachedKV:
		return "cached-kv"
	case EditNaiveSkip:
		return "naive-skip"
	case EditTeaCache:
		return "teacache"
	default:
		return fmt.Sprintf("EditMode(%d)", int(m))
	}
}

// EditRequest describes one image-editing request to the numeric engine.
type EditRequest struct {
	// Template is the prepared template cache. Required for all modes.
	Template *TemplateCache
	// Mask marks the edit region on the latent grid. Required for all
	// modes except EditFull/EditTeaCache with a nil mask (full-image
	// regeneration).
	Mask *mask.Mask
	// Prompt conditions the edited content.
	Prompt string
	// Seed drives the fresh noise for the masked region.
	Seed uint64
	// Mode selects the inference strategy.
	Mode EditMode
	// UseCacheBlocks, when non-nil, gives the bubble-free pipeline's
	// per-block decision: true = replenish from cache, false = compute all
	// tokens (Fig 9-Bottom). nil means every block uses the cache.
	// Only consulted by EditCachedY/EditCachedKV.
	UseCacheBlocks []bool
	// TeaCacheThreshold is the accumulated embedding-drift threshold above
	// which EditTeaCache recomputes; 0 selects a default.
	TeaCacheThreshold float64
	// Policy names an adaptive step-caching preset ("block", "layer",
	// "timestep", "combined"; see PolicyPresets) that lets individual
	// blocks reuse stale per-session residuals across steps. "" and "off"
	// disable it. Composes with EditFull/EditCachedY/EditCachedKV;
	// EditTeaCache and EditNaiveSkip reject it (they are alternative
	// approximation baselines, not compositions).
	Policy string
	// PolicyOverride supplies a StepPolicy instance directly, overriding
	// Policy — for tests and offline sweeps that need non-preset
	// parameters.
	PolicyOverride StepPolicy
}

// EditResult is the outcome of an edit.
type EditResult struct {
	Image *img.Image
	// StepsComputed counts denoising steps that ran the model forward
	// (differs from Steps only for EditTeaCache).
	StepsComputed int
	// BlocksComputed and BlocksReused count block executions across the
	// run, both guidance passes included. BlocksReused is nonzero only
	// when an adaptive step policy was active.
	BlocksComputed int
	BlocksReused   int
	// FinalLatent is the denoised latent (useful in tests).
	FinalLatent *tensor.Matrix
}

// PrepareTemplate encodes the template image, runs the full denoising pass
// recording activations for every step and block (the cache-population
// pass), and returns the cache together with the regenerated template
// image, which is the reference for "untouched" unmasked content.
// recordKV additionally records attention K/V (tripling cache size) to
// enable the EditCachedKV mode.
func (e *Engine) PrepareTemplate(templateID uint64, im *img.Image, prompt string, recordKV bool) (*TemplateCache, *img.Image, error) {
	cfg := e.Model.Config()
	z0, err := e.Codec.Encode(im, cfg.LatentH, cfg.LatentW)
	if err != nil {
		return nil, nil, err
	}
	noiseRNG := tensor.NewRNG(templateID ^ 0xF1A5A9)
	noise := tensor.Randn(noiseRNG, z0.R, z0.C, 1)
	cond := model.EmbedPrompt(prompt, cfg.Hidden)

	tc := &TemplateCache{
		TemplateID: templateID,
		Z0:         z0,
		Noise:      noise,
		Steps:      make([]*model.StepActivations, e.Sched.Steps),
		Cond:       cond,
	}
	guidance := e.Model.Config().GuidanceScale
	if guidance > 0 {
		tc.UncondSteps = make([]*model.StepActivations, e.Sched.Steps)
	}

	sws := e.acquireWS()
	defer e.releaseWS(sws)
	ws := sws.arena
	x := e.noisyInit(z0, noise, nil, nil)
	xNext := x.Clone()
	for t := e.Sched.Steps - 1; t >= 0; t-- {
		ws.Reset()
		rec := &model.StepActivations{}
		eps, err := e.Model.ForwardStep(x, t, cond, model.StepOptions{Record: rec, RecordKV: recordKV, WS: ws})
		if err != nil {
			return nil, nil, err
		}
		tc.Steps[t] = rec
		if guidance > 0 {
			recU := &model.StepActivations{}
			epsU, err := e.Model.ForwardStep(x, t, nil, model.StepOptions{Record: recU, RecordKV: recordKV, WS: ws})
			if err != nil {
				return nil, nil, err
			}
			tc.UncondSteps[t] = recU
			g := ws.GetRaw(eps.R, eps.C)
			guideInto(g, epsU, eps, guidance)
			eps = g
		}
		e.ddimUpdateInto(xNext, x, eps, t, nil)
		x, xNext = xNext, x
	}
	out, err := e.Codec.Decode(x, cfg.LatentH, cfg.LatentW)
	if err != nil {
		return nil, nil, err
	}
	return tc, out, nil
}

// Edit runs one edit request to completion and returns the output image.
// It is BeginEdit + Step-to-done + Result, so batch (Edit) and continuous-
// batching (EditSession) callers share one code path — including the
// adaptive step-policy machinery.
func (e *Engine) Edit(req EditRequest) (*EditResult, error) {
	s, err := e.BeginEdit(req)
	if err != nil {
		return nil, err
	}
	for {
		done, err := s.Step()
		if err != nil {
			return nil, err
		}
		if done {
			return s.Result()
		}
	}
}

// guideInto combines the unconditional and conditional predictions into dst:
// ε = ε_u + g·(ε_c − ε_u). dst may alias either input.
func guideInto(dst, epsU, epsC *tensor.Matrix, g float64) {
	gf := float32(g)
	for i := range dst.Data {
		u := epsU.Data[i]
		dst.Data[i] = u + gf*(epsC.Data[i]-u)
	}
}

// blockModes translates the request into per-block exec modes, honoring the
// bubble-free pipeline's per-block cache decisions.
func (e *Engine) blockModes(req EditRequest) []model.ExecMode {
	n := e.Model.Config().NumBlocks
	switch req.Mode {
	case EditCachedY, EditCachedKV:
		cachedMode := model.ExecCachedY
		if req.Mode == EditCachedKV {
			cachedMode = model.ExecCachedKV
		}
		modes := make([]model.ExecMode, n)
		for i := range modes {
			if req.UseCacheBlocks == nil || (i < len(req.UseCacheBlocks) && req.UseCacheBlocks[i]) {
				modes[i] = cachedMode
			} else {
				modes[i] = model.ExecFull
			}
		}
		// The final block always replenishes from cache: its unmasked
		// output rows feed the latent update directly, so this pins the
		// paper's exact-preservation guarantee regardless of the
		// pipeline's compute-all choices upstream (a compute-all final
		// block would let the edit bleed into unmasked pixels).
		modes[n-1] = cachedMode
		return modes
	case EditNaiveSkip:
		return model.UniformModes(n, model.ExecNaiveSkip)
	default:
		// Full-length even for the all-full case, so ForwardStep never has
		// to pad a short Modes slice inside the per-step hot loop.
		return model.UniformModes(n, model.ExecFull)
	}
}

// ddimUpdateInto applies the deterministic DDIM update element-wise,
// writing the result into dst (which must not alias x). With rows nil every
// row is updated from eps's row of the same index; otherwise eps holds the
// predictions of rows alone — row k that of token rows[k] — and the other
// rows of dst are left as they are.
func (e *Engine) ddimUpdateInto(dst, x, eps *tensor.Matrix, t int, rows []int) {
	c := e.Sched.ddimCoeffs(t)
	for k := 0; k < eps.R; k++ {
		row := k
		if rows != nil {
			row = rows[k]
		}
		xr, er, or := x.Row(row), eps.Row(k), dst.Row(row)
		for j := range xr {
			or[j] = float32(c.apply(float64(xr[j]), float64(er[j])))
		}
	}
}

// noisyInit builds x_T = √ᾱ_T·z0 + √(1-ᾱ_T)·ε, using templateNoise for all
// rows and freshNoise for the masked rows (when provided).
func (e *Engine) noisyInit(z0, templateNoise, freshNoise *tensor.Matrix, maskedIdx []int) *tensor.Matrix {
	s, n := e.Sched.SignalNoise(e.Sched.Steps - 1)
	x := tensor.New(z0.R, z0.C)
	for i := range x.Data {
		x.Data[i] = float32(s)*z0.Data[i] + float32(n)*templateNoise.Data[i]
	}
	if freshNoise != nil {
		for _, r := range maskedIdx {
			zr, fr, xr := z0.Row(r), freshNoise.Row(r), x.Row(r)
			for j := range xr {
				xr[j] = float32(s)*zr[j] + float32(n)*fr[j]
			}
		}
	}
	return x
}

// teaCacheComputeFraction is the fraction of denoising steps the TeaCache
// baseline computes at its minimum-latency, acceptable-quality setting
// (mirrors perfmodel.TeaCacheStepFraction on the serving track).
const teaCacheComputeFraction = 0.4

// teaCacheThresholdFor returns the smallest drift threshold whose realized
// skip pattern over this engine's schedule computes at most
// ceil(fraction·Steps) denoising steps. It simulates the accumulate-and-
// reset rule the TeaCache loop applies.
func (e *Engine) teaCacheThresholdFor(fraction float64) float64 {
	steps := e.Sched.Steps
	target := int(math.Ceil(fraction * float64(steps)))
	if target < 1 {
		target = 1
	}
	computedWith := func(th float64) int {
		computed := 1 // the first step always computes
		lastT := steps - 1
		accum := 0.0
		for t := steps - 2; t >= 0; t-- {
			accum += embeddingDrift(lastT, t, e.Model.Config().Hidden)
			if accum >= th {
				computed++
				lastT, accum = t, 0
			}
		}
		return computed
	}
	lo, hi := 0.0, 1.0
	for computedWith(hi) > target {
		hi *= 2
		if hi > 1e6 {
			break
		}
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if computedWith(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// embeddingDrift returns the mean relative L1 change between the timestep
// embeddings of steps a and b, the signal TeaCache thresholds on.
func embeddingDrift(a, b, dim int) float64 {
	ea := model.TimestepEmbedding(a, dim)
	eb := model.TimestepEmbedding(b, dim)
	var num, den float64
	for i := range ea {
		num += math.Abs(float64(ea[i]) - float64(eb[i]))
		den += math.Abs(float64(ea[i]))
	}
	if den == 0 {
		return 0
	}
	return num / den
}
