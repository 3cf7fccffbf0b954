package model

import "flashps/internal/tensor"

// ReuseCache holds per-block residual deltas from the most recent computed
// execution of each block inside one denoising session, plus the relative
// change telemetry step policies threshold on (internal/diffusion's
// StepPolicy). The cached quantity is the residual Δ_i = Y_i − X_i rather
// than the raw output: a block whose transformation drifts slowly across
// adjacent timesteps can be approximated by re-applying its stale residual
// to the current input, which keeps the approximation first-order accurate
// even though the input itself keeps moving.
//
// Under the masked cached-Y/KV modes only the masked rows carry the
// residual; unmasked rows always replenish from the template cache, so the
// paper's exact-preservation guarantee survives block reuse unchanged.
//
// All storage is preallocated at construction (one L×H matrix per block),
// so a steady-state step that consults or updates the cache performs zero
// heap allocations. A ReuseCache belongs to one guidance pass of one
// session and is not safe for concurrent use.
type ReuseCache struct {
	delta []*tensor.Matrix // per-block L×H residual
	has   []bool
	lastT []int // timestep of the stored residual

	// rate[i] is the last measured relative change of block i's residual,
	// normalized per schedule step (negative until two computes happened).
	rate []float64

	stepReused []bool // which blocks were reused this step (BeginStep resets)
}

// NewReuseCache preallocates residual storage for blocks blocks of rows×cols
// hidden activations.
func NewReuseCache(blocks, rows, cols int) *ReuseCache {
	rc := &ReuseCache{
		delta:      make([]*tensor.Matrix, blocks),
		has:        make([]bool, blocks),
		lastT:      make([]int, blocks),
		rate:       make([]float64, blocks),
		stepReused: make([]bool, blocks),
	}
	for i := range rc.delta {
		rc.delta[i] = tensor.New(rows, cols)
		rc.rate[i] = -1
	}
	return rc
}

// Blocks returns the number of blocks the cache covers.
func (rc *ReuseCache) Blocks() int { return len(rc.delta) }

// Has reports whether block i has a stored residual. ForwardStep only
// honors a reuse request for blocks with a residual, so the first step of a
// session always computes.
func (rc *ReuseCache) Has(i int) bool { return rc.has[i] }

// Rates returns the per-block change rates (aliased; callers must not
// mutate). Entries are negative until the block has computed twice.
func (rc *ReuseCache) Rates() []float64 { return rc.rate }

// BeginStep resets the per-step reuse accounting.
func (rc *ReuseCache) BeginStep() {
	for i := range rc.stepReused {
		rc.stepReused[i] = false
	}
}

// StepReused returns which blocks were reused this step (aliased).
func (rc *ReuseCache) StepReused() []bool { return rc.stepReused }

// StepReusedCount returns how many blocks were reused this step.
func (rc *ReuseCache) StepReusedCount() int {
	n := 0
	for _, r := range rc.stepReused {
		if r {
			n++
		}
	}
	return n
}

// Apply produces block i's output from the stored residual instead of
// computing the block: y = x + Δ for full execution, and for the masked
// cached modes y replenishes unmasked rows from the template's cached
// output and applies the residual to the masked rows only. The result is
// written into dst, or into arena scratch when dst is nil (see outBuf).
func (rc *ReuseCache) Apply(ws *tensor.Arena, dst *tensor.Matrix, i int, x *tensor.Matrix, mode ExecMode, cached *StepActivations, maskedIdx []int) *tensor.Matrix {
	d := rc.delta[i]
	var y *tensor.Matrix
	switch mode {
	case ExecCachedY, ExecCachedKV:
		y = copyInto(ws, dst, cached.Blocks[i].Y)
		for _, r := range maskedIdx {
			xr, dr, yr := x.Row(r), d.Row(r), y.Row(r)
			for j := range yr {
				yr[j] = xr[j] + dr[j]
			}
		}
	default:
		y = outBuf(ws, dst, x.R, x.C)
		for j := range y.Data {
			y.Data[j] = x.Data[j] + d.Data[j]
		}
	}
	rc.stepReused[i] = true
	return y
}

// Update stores block i's fresh residual y−x and measures its relative L1
// change against the previous residual, normalized by the timestep gap
// (the per-step drift rate policies threshold on). With rows nil, x and y
// are the block's input and output over all tokens; the masked modes pass
// the masked rows alone — x and y hold token rows[k] at row k — whose
// residual is the only part Apply ever reads.
func (rc *ReuseCache) Update(i int, x, y *tensor.Matrix, rows []int, t int) {
	d := rc.delta[i]
	measure := rc.has[i]
	var num, den float64
	accum := func(xr, yr, dr []float32) {
		if measure {
			for j := range dr {
				dn := yr[j] - xr[j]
				num += float64(abs32(dn - dr[j]))
				den += float64(abs32(dr[j]))
				dr[j] = dn
			}
		} else {
			for j := range dr {
				dr[j] = yr[j] - xr[j]
			}
		}
	}
	if rows == nil {
		accum(x.Data, y.Data, d.Data)
	} else {
		for k, r := range rows {
			accum(x.Row(k), y.Row(k), d.Row(r))
		}
	}
	if measure {
		gap := rc.lastT[i] - t
		if gap < 1 {
			gap = 1
		}
		change := num / (den + 1e-12)
		rc.rate[i] = change / float64(gap)
	}
	rc.has[i] = true
	rc.lastT[i] = t
}

func abs32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
