package diffusion

import (
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// derivedKV is a template's derived state: for every cached step and
// guidance pass, the K and V of each block's unmasked input rows, which are
// a function of the template alone (model.Model.DeriveKV) — every block after
// the first, and the first block too in the unconditional pass, whose
// embedding adds no prompt. It is computed from the Y cache and the latent
// trajectory on the first cached-Y edit, costs 2·(B−1)/B of the Y bytes plus
// 2/B of the unconditional pass's, is never serialized, and can be dropped
// and rebuilt at any time: an edit without it projects K and V over all
// tokens in every block, as it always has, and produces the same bytes.
type derivedKV struct {
	cond, uncond []*model.DerivedStep // indexed by timestep, like TemplateCache.Steps
	bytes        int64
}

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
// copies the rest. (Steps+1)·L·C floats, rebuilt on load, never serialized
// and not counted in SizeBytes. nil when the backbone is not token-wise or
// the cache lacks a step.
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
	tc.traj = traj
	return traj
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
// the state will occupy, and a refusal leaves the template on the computed
// path until a later edit asks again. It is called without any lock of the
// template held. State derived before the gate was installed is dropped —
// the new owner has not granted it. A nil gate (the default) always grants.
func (tc *TemplateCache) SetDeriveGate(gate func(bytes int64) bool) {
	tc.dmu.Lock()
	tc.gate = gate
	tc.dropLocked()
	tc.dmu.Unlock()
}

// DropDerived releases the template's derived K/V, including state whose
// derivation was granted but has not finished. Edits in flight keep the
// copy they started with.
func (tc *TemplateCache) DropDerived() {
	tc.dmu.Lock()
	tc.dropLocked()
	tc.dmu.Unlock()
}

func (tc *TemplateCache) dropLocked() {
	tc.derived = nil
	tc.epoch++
}

// derivedFor returns tc's derived K/V, deriving it first when this is the
// template's first cached-Y edit (or the first since the state was dropped)
// and the gate grants the bytes; nil when there is no trajectory traj to
// derive the first block's from (trajectoryFor) or the gate refuses.
// Concurrent first edits derive once.
func (e *Engine) derivedFor(tc *TemplateCache, traj []*tensor.Matrix) *derivedKV {
	m, ok := e.Model.(laneBackbone)
	if !ok || traj == nil {
		return nil
	}
	tc.deriveMu.Lock()
	defer tc.deriveMu.Unlock()
	tc.dmu.Lock()
	d, epoch, gate := tc.derived, tc.epoch, tc.gate
	tc.dmu.Unlock()
	if d != nil {
		return d
	}
	d = &derivedKV{}
	for _, st := range tc.Steps {
		d.bytes += model.DerivedKVBytes(st, false)
	}
	for _, st := range tc.UncondSteps {
		d.bytes += model.DerivedKVBytes(st, true)
	}
	if gate != nil && !gate(d.bytes) {
		return nil
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
	if tc.epoch == epoch { // not dropped since the gate granted it
		tc.derived = d
	}
	tc.dmu.Unlock()
	return d
}
