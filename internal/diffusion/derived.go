package diffusion

import (
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// derivedKV is a template's derived state: for every cached step and
// guidance pass, the K and V of each block's unmasked input rows, which are
// a function of the template alone (model.Model.DeriveKV). It is computed
// from the Y cache on the first cached-Y edit, costs 2·(B−1)/B of the Y
// bytes, is never serialized, and can be dropped and rebuilt at any time:
// an edit without it projects K and V over all tokens in every block, as it
// always has, and produces the same bytes.
type derivedKV struct {
	cond, uncond []*model.StepActivations // indexed by timestep, like TemplateCache.Steps
	bytes        int64
}

// kvDeriver is the backbone capability behind derived K/V: stating, per
// cached step, which blocks' unmasked input rows are rows of the cache. The
// flat transformer (model.Model) can; the UNet resamples between stages and
// keeps the computed path.
type kvDeriver interface {
	DeriveKV(ws *tensor.Arena, cached *model.StepActivations) *model.StepActivations
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
// and the gate grants the bytes; nil when the backbone has no derivation
// rule or the gate refuses. Concurrent first edits derive once.
func (e *Engine) derivedFor(tc *TemplateCache) *derivedKV {
	m, ok := e.Model.(kvDeriver)
	if !ok {
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
	for _, steps := range [][]*model.StepActivations{tc.Steps, tc.UncondSteps} {
		for _, st := range steps {
			d.bytes += model.DerivedKVBytes(st)
		}
	}
	if gate != nil && !gate(d.bytes) {
		return nil
	}
	ws := e.acquireWS()
	defer e.releaseWS(ws)
	derive := func(steps []*model.StepActivations) []*model.StepActivations {
		out := make([]*model.StepActivations, len(steps))
		for t, st := range steps {
			out[t] = m.DeriveKV(ws.arena, st)
		}
		return out
	}
	d.cond, d.uncond = derive(tc.Steps), derive(tc.UncondSteps)
	tc.dmu.Lock()
	if tc.epoch == epoch { // not dropped since the gate granted it
		tc.derived = d
	}
	tc.dmu.Unlock()
	return d
}
