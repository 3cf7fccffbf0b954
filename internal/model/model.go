package model

import (
	"fmt"
	"hash/fnv"
	"math"

	"flashps/internal/tensor"
)

// Model is a stack of transformer blocks with token-wise input/output
// projections between latent space (L×C) and hidden space (L×H), plus
// sinusoidal timestep embeddings and prompt conditioning. It is the
// denoiser ε_θ(x_t, t, cond) used by internal/diffusion.
type Model struct {
	Cfg    Config
	Blocks []*Block

	inProj  *tensor.Matrix // C×H
	outProj *tensor.Matrix // H×C
	timeW   *tensor.Matrix // H×H applied to the sinusoidal embedding
	// timeEmb holds the projected timestep embedding of every step the
	// engine runs (Cfg.Steps × H): per step it is the same on every pass of
	// every request, and its H exp/sin/cos calls cost as much as a block's
	// LayerNorm.
	timeEmb *tensor.Matrix
	// ctxExpand maps the prompt embedding to ContextTokens context rows
	// for cross-attention (nil when the config disables it).
	ctxExpand []*tensor.Matrix
	// posEmb is the fixed 2D sinusoidal positional embedding (L×H),
	// giving attention genuine spatial structure.
	posEmb *tensor.Matrix
}

// New constructs a model with deterministic weights derived from seed.
// The same (cfg, seed) pair always yields identical weights.
func New(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	m := &Model{
		Cfg:     cfg,
		inProj:  tensor.Randn(rng, cfg.LatentChannels, cfg.Hidden, 1/math.Sqrt(float64(cfg.LatentChannels))),
		outProj: tensor.Randn(rng, cfg.Hidden, cfg.LatentChannels, 1/math.Sqrt(float64(cfg.Hidden))),
		timeW:   tensor.Randn(rng, cfg.Hidden, cfg.Hidden, 1/math.Sqrt(float64(cfg.Hidden))),
	}
	m.posEmb = PositionalEmbedding2D(cfg.LatentH, cfg.LatentW, cfg.Hidden)
	m.timeEmb = m.timestepRows(0, cfg.Steps)
	for i := 0; i < cfg.ContextTokens; i++ {
		m.ctxExpand = append(m.ctxExpand,
			tensor.Randn(rng, cfg.Hidden, cfg.Hidden, 1/math.Sqrt(float64(cfg.Hidden))))
	}
	for i := 0; i < cfg.NumBlocks; i++ {
		blk := NewBlock(cfg.Hidden, cfg.FFNMult, rng)
		blk.Heads = cfg.Heads
		if cfg.ContextTokens > 0 {
			blk.AddCrossAttention(rng)
		}
		m.Blocks = append(m.Blocks, blk)
	}
	return m, nil
}

// MustNew is New but panics on error; for use with the package's own
// vetted configurations.
func MustNew(cfg Config, seed uint64) *Model {
	m, err := New(cfg, seed)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the model's configuration. It is part of the backbone
// contract shared with the UNet variant (see diffusion.Backbone).
func (m *Model) Config() Config { return m.Cfg }

// ExecMode selects how a single block executes within a denoising step.
type ExecMode int

const (
	// ExecFull computes all tokens (Fig 5-Top). Used by mask-agnostic
	// baselines and by blocks the bubble-free pipeline marks compute-all.
	ExecFull ExecMode = iota
	// ExecCachedY computes masked tokens only and replenishes unmasked
	// rows from the cached block output (Fig 5-Bottom, the paper's
	// primary design).
	ExecCachedY
	// ExecCachedKV additionally reuses K/V recorded beside Y for unmasked
	// tokens (Fig 7 alternative; 3× cache size, skips the unmasked K/V
	// projection in every block, the first included).
	ExecCachedKV
	// ExecNaiveSkip computes masked tokens with no global context
	// (Fig 1 rightmost; distorts output, kept as a quality baseline).
	ExecNaiveSkip
)

// String implements fmt.Stringer.
func (e ExecMode) String() string {
	switch e {
	case ExecFull:
		return "full"
	case ExecCachedY:
		return "cached-y"
	case ExecCachedKV:
		return "cached-kv"
	case ExecNaiveSkip:
		return "naive-skip"
	default:
		return fmt.Sprintf("ExecMode(%d)", int(e))
	}
}

// StepActivations holds the cacheable activations of every block for one
// denoising step, recorded during a full-computation pass over a template.
type StepActivations struct {
	Blocks []BlockActivations
}

// DerivedStep holds the derived K/V of one cached step (Model.DeriveKV).
type DerivedStep struct {
	Blocks []DerivedBlock
}

// DerivedBlock is the K and V of one block's input with every row at its
// template value: K as the packed scale·Kᵀ attention consumes, V as an L×H
// matrix; an edit writes its masked rows into a copy of each. A nil V means
// the block has none.
type DerivedBlock struct {
	K tensor.PackedKeys
	V *tensor.Matrix
}

// StepOptions controls one ForwardStep invocation.
type StepOptions struct {
	// MaskedIdx lists the masked-token rows, in ascending order (as
	// mask.Mask.MaskedIndices gives them). Required for any mode other than
	// ExecFull.
	MaskedIdx []int
	// Cached holds this step's per-block cached activations from a prior
	// full run on the same template. Required when any block mode is
	// ExecCachedY or ExecCachedKV.
	Cached *StepActivations
	// Derived holds this step's derived K/V (Model.DeriveKV over Cached).
	// An ExecCachedY block whose unmasked input rows are the template's
	// (Derivable) takes its unmasked tokens' K and V from here instead of
	// projecting all tokens again; nil, or an entry without V, computes them
	// as before. The output is the same bits either way. An entry for the
	// first block asserts that Latent's unmasked rows are those DeriveKV was
	// given, at the same timestep.
	Derived *DerivedStep
	// Modes gives the per-block execution mode. nil means ExecFull for
	// every block. A short slice is padded with ExecFull.
	Modes []ExecMode
	// Record, when non-nil, is filled with this step's activations
	// (always records the block outputs actually produced). Recorded
	// matrices are deep copies, never workspace-backed.
	Record *StepActivations
	// RecordKV additionally records each full block's attention K and V
	// into Record (the cached-KV mode's inputs); without it only block
	// outputs are recorded.
	RecordKV bool
	// WS, when non-nil, serves every intermediate of the step — and the
	// returned noise prediction — from the arena. The caller owns the
	// arena and must not Reset it until the returned matrix has been
	// consumed. A steady-state step with a warm arena performs zero heap
	// allocations (see tensor.Arena).
	WS *tensor.Arena
	// Reuse, when non-nil together with ReuseCache, asks per block for the
	// output to be reproduced from the cache's stale residual instead of
	// computing the block (internal/diffusion's adaptive step policies).
	// A reuse request is honored only for blocks with a stored residual,
	// so the first step of a session always computes; backbones without
	// residual support (the UNet) ignore these fields entirely, which
	// degrades gracefully to full compute with zero reported reuse.
	Reuse []bool
	// ReuseCache holds the per-session residuals serving Reuse, and is
	// updated with fresh residuals for every block that computes.
	ReuseCache *ReuseCache
}

// UniformModes returns a Modes slice with every one of n blocks set to mode.
func UniformModes(n int, mode ExecMode) []ExecMode {
	ms := make([]ExecMode, n)
	for i := range ms {
		ms[i] = mode
	}
	return ms
}

// Lane is one (request, guidance pass) of a stacked denoising step: its own
// latent, timestep, prompt and options — mask, block modes, cached and
// derived activations, recording, step-policy reuse. ForwardLanes fills Out
// or Err; everything below them is the step's own state.
type Lane struct {
	Latent *tensor.Matrix
	T      int
	Cond   []float32
	// StepOptions.WS is ignored: one arena serves every lane of the step.
	StepOptions
	// MaskedOut asks for the noise prediction of the MaskedIdx rows alone —
	// all a caller that updates only those rows of the latent reads. A lane
	// whose last block left its masked rows in the stack projects them from
	// there and never puts its full activations together.
	MaskedOut bool

	// Out is the lane's noise prediction, served from the step's arena: L×C,
	// or with MaskedOut M×C, row k that of token MaskedIdx[k].
	Out *tensor.Matrix
	Err error

	modes []ExecMode
	ctx   *tensor.Matrix // cross-attention context rows (nil without)
	// Full L×H activations, as many as the lane can come to fill (checkLane):
	// none when every block it runs reads its masked rows alone, one when
	// full inputs are only put together (fill), two when some block computes
	// a full output from a full input — block i's input is bufs[i%nbuf].
	bufs [2]*tensor.Matrix
	nbuf int
	// The lane's current activations live in x (all tokens) when full, and
	// in the stack's rows [lo, hi) (the masked tokens, in MaskedIdx order)
	// when resident; before the first block neither holds — nothing is
	// embedded until a block says which rows it reads — and from then on at
	// least one does. Only a lane that stacks — runs some cached-mode block
	// — has rows.
	x              *tensor.Matrix
	full, resident bool
	stacks         bool
	lo, hi         int

	// This block: whether the lane takes part in the stacked computation,
	// and where its K/V come from — projected from all rows of kvX, or given
	// for the unmasked tokens (v, with the keys packed in kp or plain in k),
	// or neither: the masked rows' own alone.
	active bool
	kvX    *tensor.Matrix
	kp     *tensor.PackedKeys
	k, v   *tensor.Matrix
}

// ForwardStep runs one denoising step: project the L×C latent into hidden
// space, add timestep and prompt conditioning, execute every block under
// its mode, and project back to an L×C noise prediction. It is ForwardLanes
// with one lane.
func (m *Model) ForwardStep(latent *tensor.Matrix, t int, cond []float32, opts StepOptions) (*tensor.Matrix, error) {
	lane := [1]Lane{{Latent: latent, T: t, Cond: cond, StepOptions: opts}}
	m.ForwardLanes(opts.WS, lane[:])
	return lane[0].Out, lane[0].Err
}

// ForwardLanes runs one denoising step of every lane, with every
// intermediate and every lane's Out served from ws (nil allocates). The
// lanes share the weights and nothing else: they may sit at different
// timesteps, on different templates, under different masks and modes.
//
// Per block, the lanes that compute their masked rows under a cached mode
// are stacked: their masked rows form one ΣM×H operand for LN1, the Q/K/V
// projections, the output projection and residual, LN2 and the FFN
// (Block.forwardRows), while K/V assembly and attention stay per lane. The
// stacked rows stay resident from block to block; a lane's full L×H
// activations are put together (the embedding of all tokens, or the cached
// output of the previous block with the lane's rows spliced in — what a
// mask-aware block returns) only where something reads unmasked rows: a
// block that projects K/V from its whole input, a full-token or
// policy-reused block, Record, and an output projection of all rows. A lane
// whose every block is given its K/V and whose caller reads the masked rows
// of Out alone embeds, computes and projects M rows and nothing else. Blocks
// that cannot stack (ExecFull, ExecNaiveSkip, a reused residual) run per
// lane in the same loop.
//
// GEMM, LayerNorm, GeLU and attention rows are independent (tensor's
// determinism contract), so every lane's Out is bit-identical to that of
// the lane forwarded alone.
func (m *Model) ForwardLanes(ws *tensor.Arena, lanes []Lane) {
	L, H := m.Cfg.Tokens(), m.Cfg.Hidden
	rows := 0
	for j := range lanes {
		l := &lanes[j]
		l.Out, l.active, l.lo, l.hi = nil, false, rows, rows
		if l.Err = m.checkLane(l); l.Err != nil {
			continue
		}
		l.bufs = [2]*tensor.Matrix{}
		for b := 0; b < l.nbuf; b++ {
			l.bufs[b] = ws.GetRaw(L, H)
		}
		l.x, l.full, l.resident = nil, false, false
		l.ctx = m.buildContext(ws, l.Cond)
		if l.Record != nil {
			l.Record.Blocks = make([]BlockActivations, len(m.Blocks))
		}
		if l.stacks {
			rows += len(l.MaskedIdx)
		}
		l.hi = rows
	}
	// The stack: block input rows in xS, output rows in yS, swapped at
	// every block boundary.
	var xS, yS *tensor.Matrix
	if rows > 0 {
		xS, yS = ws.GetRaw(rows, H), ws.GetRaw(rows, H)
	}
	// Everything else a block takes from ws is released at its boundary, so
	// the arena holds one block's working set, not the step's.
	mark := ws.Mark()
	for i, blk := range m.Blocks {
		stacked := false
		for j := range lanes {
			if l := &lanes[j]; l.Err == nil {
				m.laneBlock(ws, l, i, blk, xS)
				stacked = stacked || l.active
				ws.Release(mark)
			}
		}
		if !stacked {
			continue
		}
		// Maximal runs of lanes whose rows are contiguous in the stack: a
		// lane that sat this block out with rows of its own ends a run.
		for lo := 0; lo < len(lanes); {
			if !lanes[lo].active {
				lo++
				continue
			}
			hi := lo + 1
			for hi < len(lanes) && (lanes[hi].active || lanes[hi].lo == lanes[hi].hi) {
				hi++
			}
			blk.forwardRows(ws, yS, xS, lanes[lo:hi])
			ws.Release(mark)
			lo = hi
		}
		xS, yS = yS, xS
		for j := range lanes {
			l := &lanes[j]
			if !l.active {
				continue
			}
			l.active, l.resident, l.full = false, true, false
			if l.ReuseCache != nil {
				l.ReuseCache.Update(i, rowsOf(ws, yS, l.lo, l.hi), rowsOf(ws, xS, l.lo, l.hi), l.MaskedIdx, l.T)
			}
			if l.Record != nil {
				m.fill(ws, l, i+1, xS)
				l.Record.Blocks[i] = BlockActivations{Y: l.x.Clone()}
			}
			ws.Release(mark)
		}
	}
	for j := range lanes {
		l := &lanes[j]
		if l.Err != nil {
			continue
		}
		var y *tensor.Matrix
		switch {
		case !l.MaskedOut:
			m.fill(ws, l, len(m.Blocks), xS)
			y = l.x
		case l.resident:
			y = rowsOf(ws, xS, l.lo, l.hi)
		default:
			y = ws.GetRaw(len(l.MaskedIdx), H)
			tensor.GatherRowsInto(y, l.x, l.MaskedIdx)
		}
		l.Out = ws.GetRaw(y.R, m.Cfg.LatentChannels)
		m.NoiseOf(l.Out, y)
	}
}

// NoiseOf projects rows of the last block's output y (n×H) to their noise
// predictions in dst (n×C). It is token-wise: a row's prediction has the
// same bits alone, among the masked rows, or among all L.
func (m *Model) NoiseOf(dst, y *tensor.Matrix) { tensor.MatMulInto(dst, y, m.outProj) }

// checkLane validates a lane's shapes and that its modes have the inputs
// they need, and resolves its full-length mode slice, whether it stacks and
// how many full L×H buffers it can come to fill.
func (m *Model) checkLane(l *Lane) error {
	if l.Latent.R != m.Cfg.Tokens() || l.Latent.C != m.Cfg.LatentChannels {
		return fmt.Errorf("model: latent shape %v, want %d×%d", l.Latent, m.Cfg.Tokens(), m.Cfg.LatentChannels)
	}
	if len(l.Cond) != 0 && len(l.Cond) != m.Cfg.Hidden {
		return fmt.Errorf("model: cond length %d, want 0 or %d", len(l.Cond), m.Cfg.Hidden)
	}
	for r, j := range l.MaskedIdx {
		if j < 0 || j >= m.Cfg.Tokens() || r > 0 && j <= l.MaskedIdx[r-1] {
			return fmt.Errorf("model: masked index %d at %d, want strictly ascending in [0,%d)", j, r, m.Cfg.Tokens())
		}
	}
	l.modes, l.stacks, l.nbuf = l.Modes, false, 0
	if len(l.modes) < len(m.Blocks) {
		l.modes = make([]ExecMode, len(m.Blocks))
		copy(l.modes, l.Modes)
	}
	if l.Record != nil || !l.MaskedOut {
		l.nbuf = 1
	}
	for i, mode := range l.modes[:len(m.Blocks)] {
		switch mode {
		case ExecFull:
			l.nbuf = 2
		case ExecCachedY, ExecCachedKV:
			l.stacks = true
			if l.Cached == nil || len(l.Cached.Blocks) <= i || l.Cached.Blocks[i].Y == nil && l.readsY(i, len(m.Blocks)) {
				return fmt.Errorf("model: block %d mode %v requires cached activations", i, mode)
			}
			if len(l.MaskedIdx) == 0 {
				return fmt.Errorf("model: block %d mode %v requires masked indices", i, mode)
			}
			if mode == ExecCachedKV && (l.Cached.Blocks[i].K == nil || l.Cached.Blocks[i].V == nil) {
				return fmt.Errorf("model: block %d mode cached-kv requires cached K/V", i)
			}
			if l.ReuseCache != nil {
				// A reused residual is applied to the full input, on the
				// steps the policy plans it: the same buffers on all of them.
				l.nbuf = 2
			} else if _, _, v := l.givenKV(i); v == nil {
				l.nbuf = max(l.nbuf, 1)
			}
		case ExecNaiveSkip:
			l.nbuf = 2
			if len(l.MaskedIdx) == 0 {
				return fmt.Errorf("model: block %d mode naive-skip requires masked indices", i)
			}
		default:
			return fmt.Errorf("model: block %d: unknown exec mode %v", i, mode)
		}
	}
	return nil
}

// readsY reports whether the lane reads the cached output of block i, a
// cached-mode block of n: whatever puts the lane's full activations
// together after it does (fill) — the next block unless it is given its
// K/V, a reused residual, Record, or an output projection of all rows. A
// lane given the K/V of every block after the first reads no Y at all,
// which is what lets a template's derived form (diffusion) hold none.
func (l *Lane) readsY(i, n int) bool {
	if l.Record != nil || l.ReuseCache != nil {
		return true
	}
	if i+1 == n {
		return !l.MaskedOut
	}
	if next := l.modes[i+1]; next != ExecCachedY && next != ExecCachedKV || len(l.Cached.Blocks) <= i+1 {
		return true
	}
	_, _, v := l.givenKV(i + 1)
	return v == nil
}

// laneBlock is lane l's share of block i ahead of the stacked computation:
// a block that cannot stack runs here, on the lane's full activations; a
// cached-mode block is marked active, with its K/V source chosen and its
// masked rows put into the stack xS.
func (m *Model) laneBlock(ws *tensor.Arena, l *Lane, i int, blk *Block, xS *tensor.Matrix) {
	mode, rc := l.modes[i], l.ReuseCache
	reuse := rc != nil && i < len(l.Reuse) && l.Reuse[i] && rc.Has(i) && mode != ExecNaiveSkip
	l.kvX, l.kp, l.k, l.v = nil, nil, nil, nil
	if !reuse && (mode == ExecCachedY || mode == ExecCachedKV) {
		if l.kp, l.k, l.v = l.givenKV(i); l.v == nil {
			m.fill(ws, l, i, xS)
			l.kvX = l.x
		}
		switch rows := rowsOf(ws, xS, l.lo, l.hi); {
		case l.resident:
		case l.full:
			tensor.GatherRowsInto(rows, l.x, l.MaskedIdx)
		default:
			// The first block, its K/V given: the masked rows are all of
			// the embedding anything reads.
			m.embed(ws, rows, l.Latent, l.MaskedIdx, l.T, l.Cond)
		}
		l.active = true
		return
	}
	m.fill(ws, l, i, xS)
	xin, out := l.x, l.bufs[(i+1)%2]
	l.resident = false
	switch {
	case reuse:
		l.x = rc.Apply(ws, out, i, xin, mode, l.Cached, l.MaskedIdx)
	case mode == ExecNaiveSkip:
		// No residual is kept: a naive-skip block is never reused.
		l.x = blk.forwardNaiveSkip(ws, out, xin, l.ctx, l.MaskedIdx)
	default: // ExecFull
		var rec *BlockActivations
		if l.Record != nil {
			rec = &l.Record.Blocks[i]
		}
		l.x = blk.forward(ws, out, xin, l.ctx, rec, l.RecordKV)
		if rc != nil {
			rc.Update(i, xin, l.x, nil, l.T)
		}
		return
	}
	if l.Record != nil {
		l.Record.Blocks[i] = BlockActivations{Y: l.x.Clone()}
	}
}

// fill makes l.x the lane's full input of block i: the embedding of all
// tokens when nothing has been computed yet, and the output of block i−1
// otherwise — when only the masked rows are current, in the stack xS, the
// previous block's cached output with those rows spliced in.
func (m *Model) fill(ws *tensor.Arena, l *Lane, i int, xS *tensor.Matrix) {
	if l.full {
		return
	}
	l.x = l.bufs[i%l.nbuf]
	if l.resident {
		copy(l.x.Data, l.Cached.Blocks[i-1].Y.Data)
		tensor.ScatterRows(l.x, rowsOf(ws, xS, l.lo, l.hi), l.MaskedIdx)
	} else {
		m.embed(ws, l.x, l.Latent, nil, l.T, l.Cond)
	}
	l.full = true
}

// givenKV returns the K and V of block i's unmasked tokens when the lane is
// given them instead of projecting its whole input: recorded beside Y for
// ExecCachedKV (plain k), derived from the template for an ExecCachedY block
// whose unmasked input rows are the template's (packed kp). A nil v: none.
func (l *Lane) givenKV(i int) (kp *tensor.PackedKeys, k, v *tensor.Matrix) {
	switch d := l.Derived; {
	case l.modes[i] == ExecCachedKV:
		return nil, l.Cached.Blocks[i].K, l.Cached.Blocks[i].V
	case l.modes[i] == ExecCachedY && d != nil && i < len(d.Blocks) && d.Blocks[i].V != nil && Derivable(l.modes, i, len(l.Cond) != 0):
		return &d.Blocks[i].K, nil, d.Blocks[i].V
	}
	return nil, nil, nil
}

// Derivable reports whether block i's input carries template values in its
// unmasked rows under modes — the condition for derived K/V to stand in for
// the block's own projections. A later block's does when its predecessor
// replenished from the cache: one that computed all tokens (a bubble-free
// pipeline hole) or passed its input through (naive skip) hands on rows the
// cache has never seen. The first block's input is the embedding,
// inProj(x_t) + temb + pos plus the lane's prompt on every row: a prompted
// lane's is the request's own, an unprompted one's (the unconditional
// guidance pass) is a function of the template's latent trajectory.
func Derivable(modes []ExecMode, i int, prompted bool) bool {
	if i == 0 {
		return !prompted
	}
	return modes[i-1] == ExecCachedY || modes[i-1] == ExecCachedKV
}

// DeriveKV computes the derived K/V of one cached step: K = LN1(x)·WK,
// packed as attention consumes it, and V = LN1(x)·WV of each block's input x
// with every row at its template value. For every block after the first that
// is the previous block's cached output Y': a mask-aware block's output is
// Y' with the computed rows spliced in (Model.fill), so the next block's
// unmasked input rows are rows of Y' whatever the request. For the first
// block it is the promptless embedding of latent, the template's own x_t at
// timestep t — given only for a pass that adds no prompt (nil: the block has
// none derived). LN1, GEMM and the embedding being token-wise, the derived
// rows have the bits the block would compute. Intermediates come from ws;
// the result is heap-allocated in one piece (DerivedKVBytes).
func (m *Model) DeriveKV(ws *tensor.Arena, cached *StepActivations, latent *tensor.Matrix, t int) *DerivedStep {
	out := &DerivedStep{Blocks: make([]DerivedBlock, len(m.Blocks))}
	slab := make([]float32, DerivedKVBytes(cached, latent != nil)/4)
	mark := ws.Mark()
	for i, blk := range m.Blocks {
		var x *tensor.Matrix
		switch {
		case i > 0:
			x = cached.Blocks[i-1].Y
		case latent != nil:
			x = m.embed(ws, ws.GetRaw(m.Cfg.Tokens(), m.Cfg.Hidden), latent, nil, t, nil)
		default:
			continue
		}
		n := 2 * len(x.Data)
		out.Blocks[i] = blk.DeriveKV(ws, x, slab[:n:n])
		slab = slab[n:]
		ws.Release(mark)
	}
	return out
}

// DerivedKVBytes returns the size of DeriveKV's result for cached, with or
// without the first block's.
func DerivedKVBytes(cached *StepActivations, first bool) int64 {
	var n int64
	for _, b := range cached.Blocks[:max(len(cached.Blocks)-1, 0)] {
		n += 2 * 4 * int64(len(b.Y.Data))
	}
	if first && len(cached.Blocks) > 0 {
		n += 2 * 4 * int64(len(cached.Blocks[0].Y.Data))
	}
	return n
}

// buildContext expands the prompt embedding into ContextTokens context
// rows for cross-attention. It returns nil when cross-attention is
// disabled or cond is empty.
func (m *Model) buildContext(ws *tensor.Arena, cond []float32) *tensor.Matrix {
	if len(m.ctxExpand) == 0 || len(cond) == 0 {
		return nil
	}
	ctx := ws.GetRaw(len(m.ctxExpand), m.Cfg.Hidden)
	c := ws.Wrap(1, m.Cfg.Hidden, cond)
	for i, w := range m.ctxExpand {
		row := ws.Wrap(1, m.Cfg.Hidden, ctx.Row(i))
		tensor.MatMulInto(row, c, w)
	}
	return ctx
}

// embed maps the latent into hidden space, writing x, and adds timestep,
// position and prompt conditioning (all token-wise): (x + (temb + pos)) + cond.
// With rows nil x holds every token; otherwise row k is token rows[k].
func (m *Model) embed(ws *tensor.Arena, x, latent *tensor.Matrix, rows []int, t int, cond []float32) *tensor.Matrix {
	mark := ws.Mark()
	defer ws.Release(mark)
	if rows != nil {
		all := latent
		latent = ws.GetRaw(len(rows), all.C)
		tensor.GatherRowsInto(latent, all, rows)
	}
	tensor.MatMulInto(x, latent, m.inProj)
	var temb []float32
	if t >= 0 && t < m.timeEmb.R {
		temb = m.timeEmb.Row(t)
	} else {
		temb = m.timestepRows(t, t+1).Data
	}
	tp, pos := ws.GetRaw(x.R, x.C), m.posEmb
	if rows != nil {
		tensor.GatherRowsInto(tp, m.posEmb, rows)
		pos = tp
	}
	tensor.AddRowVecInto(tp, pos, temb) // pos + temb: the add commutes
	tensor.AddInPlace(x, tp)
	if len(cond) != 0 {
		tensor.AddRowVecInto(x, x, cond)
	}
	return x
}

// timestepRows returns the conditioning vector of each timestep in
// [lo, hi), one per row: the sinusoidal embedding projected by timeW. GEMM
// rows are independent, so a step's row has the same bits in any range.
func (m *Model) timestepRows(lo, hi int) *tensor.Matrix {
	// Denoisers are strongly timestep-conditioned; the gain keeps ε_θ's
	// dependence on t comparable to its dependence on content, so that
	// step-skipping baselines (TeaCache) pay a realistic quality cost.
	const timestepGain = 4
	sin := tensor.New(hi-lo, m.Cfg.Hidden)
	for t := lo; t < hi; t++ {
		TimestepEmbeddingInto(sin.Row(t-lo), t)
	}
	return tensor.Scale(tensor.MatMul(sin, m.timeW), timestepGain)
}

// PositionalEmbedding2D returns the fixed 2D sinusoidal positional
// embedding for an h×w token grid: the first half of the hidden dimension
// encodes the row, the second half the column (token-wise, so it is fully
// compatible with mask-aware execution).
func PositionalEmbedding2D(h, w, dim int) *tensor.Matrix {
	out := tensor.New(h*w, dim)
	half := dim / 2
	for y := 0; y < h; y++ {
		ey := TimestepEmbedding(y, half)
		for x := 0; x < w; x++ {
			ex := TimestepEmbedding(x, dim-half)
			row := out.Row(y*w + x)
			copy(row[:half], ey)
			copy(row[half:], ex)
		}
	}
	return out
}

// TimestepEmbedding returns the standard sinusoidal embedding of timestep t
// with the given dimension.
func TimestepEmbedding(t, dim int) []float32 {
	emb := make([]float32, dim)
	TimestepEmbeddingInto(emb, t)
	return emb
}

// TimestepEmbeddingInto writes the sinusoidal embedding of timestep t into
// dst (dimension len(dst)) without allocating.
func TimestepEmbeddingInto(dst []float32, t int) {
	half := len(dst) / 2
	for i := 0; i < half; i++ {
		freq := math.Exp(-math.Log(10000) * float64(i) / float64(half))
		dst[i] = float32(math.Sin(float64(t) * freq))
		dst[half+i] = float32(math.Cos(float64(t) * freq))
	}
	if len(dst)%2 == 1 && len(dst) > 0 {
		dst[len(dst)-1] = 0
	}
}

// EmbedPrompt deterministically maps a prompt string to a conditioning
// vector of the given dimension. Distinct prompts map to (almost surely)
// distinct directions; the empty prompt maps to the zero vector.
func EmbedPrompt(prompt string, dim int) []float32 {
	out := make([]float32, dim)
	if prompt == "" {
		return out
	}
	h := fnv.New64a()
	h.Write([]byte(prompt))
	rng := tensor.NewRNG(h.Sum64())
	scale := 0.1 / math.Sqrt(float64(dim))
	for i := range out {
		out[i] = float32(rng.NormFloat64() * scale * math.Sqrt(float64(dim)))
	}
	return out
}
