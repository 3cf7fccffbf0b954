package diffusion

import (
	"errors"

	"flashps/internal/model"
	"flashps/internal/tensor"
)

// derivedKV is a template's derived state: for every cached step and
// guidance pass, the K and V of each block's unmasked input rows, which are
// a function of the template alone (model.Model.DeriveKV) — every block after
// the first, and the first block too in the unconditional pass, whose
// embedding adds no prompt. It is computed from the Y cache and the latent
// trajectory on the first cached-Y edit, costs 2·(B−1)/B of the Y bytes plus
// 2/B of the unconditional pass's, and can be dropped and rebuilt at any
// time: an edit without it projects K and V over all tokens in every block,
// as it always has, and produces the same bytes. Only a derived form
// (DerivedForm) serializes it, and keeps it for good.
type derivedKV struct {
	cond, uncond []*model.DerivedStep // indexed by timestep, like TemplateCache.Steps
	bytes        int64
}

// ErrNoY reports an edit that reads Y (Engine.ReadsY) given a template's
// derived form, which holds none: its caller serves it from the Y form.
var ErrNoY = errors.New("diffusion: the edit reads Y, which the template's derived form does not hold")

// laneBackbone is what a backbone offers beyond Backbone when its blocks are
// token-wise end to end (model.Model): several lanes forwarded at once, the
// masked rows sharing one operand; the noise prediction of single rows of
// its last block's output; and, per cached step, the K/V of the blocks whose
// unmasked input rows are the template's. The UNet resamples between stages
// and has none of the three: its lanes are forwarded one by one over all
// rows and it keeps the computed path.
type laneBackbone interface {
	ForwardLanes(ws *tensor.Arena, lanes []model.Lane)
	NoiseOf(dst, y *tensor.Matrix)
	DeriveKV(ws *tensor.Arena, cached *model.StepActivations, latent *tensor.Matrix, t int) *model.DerivedStep
}

// trajectoryFor returns the template's latent trajectory, replaying it from
// the cache on the template's first mask-aware edit in this process: entry
// t+1 is the latent step t starts from, entry 0 the final one. The unmasked
// rows of every mask-aware edit's latents are rows of these — their noise
// predictions are projections of the last block's cached rows, guidance and
// the DDIM update are element-wise — so an edit updates its masked rows and
// copies the rest. TrajectoryBytes, rebuilt on load and not counted in
// SizeBytes — except by a derived form, which holds it from the start. nil
// when the backbone is not token-wise or the cache lacks a step.
func (e *Engine) trajectoryFor(tc *TemplateCache) []*tensor.Matrix {
	m, ok := e.Model.(laneBackbone)
	if !ok {
		return nil
	}
	tc.deriveMu.Lock()
	defer tc.deriveMu.Unlock()
	if tc.traj != nil {
		return tc.traj
	}
	guidance := e.Model.Config().GuidanceScale
	traj := make([]*tensor.Matrix, e.Sched.Steps+1)
	traj[e.Sched.Steps] = e.noisyInit(tc.Z0, tc.Noise, nil, nil)
	eps, epsU := tensor.New(tc.Z0.R, tc.Z0.C), tensor.New(tc.Z0.R, tc.Z0.C)
	for t := e.Sched.Steps - 1; t >= 0; t-- {
		y, yU := lastY(tc.Steps, t), lastY(tc.UncondSteps, t)
		if y == nil || (guidance > 0 && yU == nil) {
			return nil
		}
		m.NoiseOf(eps, y)
		if guidance > 0 {
			m.NoiseOf(epsU, yU)
			guideInto(eps, epsU, eps, guidance)
		}
		traj[t] = tensor.New(tc.Z0.R, tc.Z0.C)
		e.ddimUpdateInto(traj[t], traj[t+1], eps, t, nil)
	}
	tc.dmu.Lock()
	tc.traj = traj
	tc.dmu.Unlock()
	return traj
}

// TrajectoryBytes returns the size of the template's latent trajectory,
// (Steps+1)·L·C floats.
func (tc *TemplateCache) TrajectoryBytes() int64 {
	return int64(len(tc.Steps)+1) * int64(len(tc.Z0.Data)) * 4
}

// lastY returns the last block's cached output at step t, nil when the
// cache has none.
func lastY(steps []*model.StepActivations, t int) *tensor.Matrix {
	if t >= len(steps) || steps[t] == nil || len(steps[t].Blocks) == 0 {
		return nil
	}
	return steps[t].Blocks[len(steps[t].Blocks)-1].Y
}

// DerivedBytes returns the bytes of derived K/V the template holds now.
func (tc *TemplateCache) DerivedBytes() int64 {
	tc.dmu.Lock()
	defer tc.dmu.Unlock()
	if tc.derived == nil {
		return 0
	}
	return tc.derived.bytes
}

// SetDeriveGate makes whoever accounts for the template's memory the judge
// of its derived state: gate is asked once per derivation, with the bytes
// the state will occupy and whether the edit asking would run on the
// template's derived form (form: it does not read Y, Engine.ReadsY), and a
// refusal leaves the template on the computed path until a later edit asks
// again; kept, when non-nil, is called once a
// granted derivation is in place (DerivedForm has it from then on). Both are
// called without any lock of the template held. State derived before the
// gate was installed is dropped — the new owner has not granted it. A nil
// gate (the default) always grants. A derived form, whose state is fixed,
// asks neither.
func (tc *TemplateCache) SetDeriveGate(gate func(bytes int64, form bool) bool, kept func()) {
	tc.dmu.Lock()
	tc.gate, tc.kept = gate, kept
	tc.dropLocked()
	tc.dmu.Unlock()
}

// DropDerived releases the template's derived K/V, including state whose
// derivation was granted but has not finished. Edits in flight keep the
// copy they started with. A derived form keeps its own.
func (tc *TemplateCache) DropDerived() {
	tc.dmu.Lock()
	tc.dropLocked()
	tc.dmu.Unlock()
}

func (tc *TemplateCache) dropLocked() {
	if tc.form {
		return
	}
	tc.derived = nil
	tc.epoch++
}

// IsDerivedForm reports whether tc is a template's derived form.
func (tc *TemplateCache) IsDerivedForm() bool { return tc.form }

// DerivedForm returns the template's derived form: a new TemplateCache with
// tc's id, latents and conditioning, its latent trajectory and derived K/V,
// and steps that hold no Y. That is everything an edit that does not read Y
// (Engine.ReadsY) takes from the template, so such an edit has the same
// bits on either. The state is shared, not copied, and fixed in the form:
// the form can be serialized, and sessions holding tc keep it. nil when tc
// holds no derived state now; tc itself when it is a derived form.
func (tc *TemplateCache) DerivedForm() *TemplateCache {
	if tc.form {
		return tc
	}
	tc.dmu.Lock()
	traj, d := tc.traj, tc.derived
	tc.dmu.Unlock()
	if traj == nil || d == nil {
		return nil
	}
	return &TemplateCache{
		TemplateID: tc.TemplateID, Z0: tc.Z0, Noise: tc.Noise, Cond: tc.Cond,
		Steps: withoutY(tc.Steps), UncondSteps: withoutY(tc.UncondSteps),
		traj: traj, derived: d, form: true, ybytes: tc.SizeBytes(),
	}
}

// withoutY returns steps' shape: as many steps, each with as many blocks,
// holding nothing.
func withoutY(steps []*model.StepActivations) []*model.StepActivations {
	if steps == nil {
		return nil
	}
	out := make([]*model.StepActivations, len(steps))
	for t, st := range steps {
		if st != nil {
			out[t] = &model.StepActivations{Blocks: make([]model.BlockActivations, len(st.Blocks))}
		}
	}
	return out
}

// ReadsY reports whether req reads its template's Y cache, or the K/V
// recorded beside it — what a derived form does not hold. A cached-Y edit
// does unless it is given the K/V of every block after the first: it does
// when a step policy may serve a block from its residual, or a bubble-free
// hole computes a block over all tokens. A cached-KV edit reads the
// recorded K/V. The other modes read only the template's latents.
func (e *Engine) ReadsY(req EditRequest) bool {
	switch req.Mode {
	case EditCachedKV:
		return true
	case EditCachedY:
		if p, err := PolicyByName(req.Policy); req.PolicyOverride != nil || p != nil || err != nil {
			return true
		}
		for _, m := range e.blockModes(req) {
			if m != model.ExecCachedY {
				return true
			}
		}
	}
	return false
}

// derivedFor returns tc's derived K/V, deriving it first when this is the
// template's first cached-Y edit (or the first since the state was dropped)
// and the gate grants the bytes, told form: whether the edit would run on the
// template's derived form; nil when there is no trajectory traj to derive
// the first block's from (trajectoryFor) or the gate refuses. Concurrent
// first edits derive once.
func (e *Engine) derivedFor(tc *TemplateCache, traj []*tensor.Matrix, form bool) *derivedKV {
	d, kept := e.derive(tc, traj, form)
	if kept != nil {
		kept()
	}
	return d
}

// derive is derivedFor under the template's derivation lock; it returns the
// gate's kept callback when it put granted state in place.
func (e *Engine) derive(tc *TemplateCache, traj []*tensor.Matrix, form bool) (*derivedKV, func()) {
	m, ok := e.Model.(laneBackbone)
	if !ok || traj == nil {
		return nil, nil
	}
	tc.deriveMu.Lock()
	defer tc.deriveMu.Unlock()
	tc.dmu.Lock()
	d, epoch, gate, kept := tc.derived, tc.epoch, tc.gate, tc.kept
	tc.dmu.Unlock()
	if d != nil {
		return d, nil
	}
	d = &derivedKV{}
	for _, st := range tc.Steps {
		d.bytes += model.DerivedKVBytes(st, false)
	}
	for _, st := range tc.UncondSteps {
		d.bytes += model.DerivedKVBytes(st, true)
	}
	if gate != nil && !gate(d.bytes, form) {
		return nil, nil
	}
	ws := e.acquireWS()
	defer e.releaseWS(ws)
	d.cond = make([]*model.DerivedStep, len(tc.Steps))
	for t, st := range tc.Steps {
		d.cond[t] = m.DeriveKV(ws.arena, st, nil, t)
	}
	d.uncond = make([]*model.DerivedStep, len(tc.UncondSteps))
	for t, st := range tc.UncondSteps {
		d.uncond[t] = m.DeriveKV(ws.arena, st, traj[t+1], t)
	}
	tc.dmu.Lock()
	if tc.epoch != epoch { // dropped since the gate granted it
		kept = nil
	} else {
		tc.derived = d
	}
	tc.dmu.Unlock()
	return d, kept
}
