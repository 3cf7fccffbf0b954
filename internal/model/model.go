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

// StepOptions controls one ForwardStep invocation.
type StepOptions struct {
	// MaskedIdx lists the masked-token rows. Required for any mode other
	// than ExecFull.
	MaskedIdx []int
	// Cached holds this step's per-block cached activations from a prior
	// full run on the same template. Required when any block mode is
	// ExecCachedY or ExecCachedKV.
	Cached *StepActivations
	// Derived holds this step's derived K/V (Model.DeriveKV over Cached).
	// An ExecCachedY block whose predecessor replenished from the cache
	// takes its unmasked tokens' K and V from here instead of projecting
	// all tokens again; nil, or a nil entry, computes them as before. The
	// output is the same bits either way.
	Derived *StepActivations
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

// ForwardStep runs one denoising step: project the L×C latent into hidden
// space, add timestep and prompt conditioning, execute every block under
// its mode, and project back to an L×C noise prediction.
func (m *Model) ForwardStep(latent *tensor.Matrix, t int, cond []float32, opts StepOptions) (*tensor.Matrix, error) {
	L := m.Cfg.Tokens()
	if latent.R != L || latent.C != m.Cfg.LatentChannels {
		return nil, fmt.Errorf("model: latent shape %v, want %d×%d", latent, L, m.Cfg.LatentChannels)
	}
	if len(cond) != 0 && len(cond) != m.Cfg.Hidden {
		return nil, fmt.Errorf("model: cond length %d, want 0 or %d", len(cond), m.Cfg.Hidden)
	}
	modes := opts.Modes
	if len(modes) < len(m.Blocks) {
		padded := make([]ExecMode, len(m.Blocks))
		copy(padded, modes)
		modes = padded
	}
	for i, mode := range modes[:len(m.Blocks)] {
		switch mode {
		case ExecCachedY, ExecCachedKV:
			if opts.Cached == nil || len(opts.Cached.Blocks) <= i || opts.Cached.Blocks[i].Y == nil {
				return nil, fmt.Errorf("model: block %d mode %v requires cached activations", i, mode)
			}
			if len(opts.MaskedIdx) == 0 {
				return nil, fmt.Errorf("model: block %d mode %v requires masked indices", i, mode)
			}
			if mode == ExecCachedKV && (opts.Cached.Blocks[i].K == nil || opts.Cached.Blocks[i].V == nil) {
				return nil, fmt.Errorf("model: block %d mode cached-kv requires cached K/V", i)
			}
		case ExecNaiveSkip:
			if len(opts.MaskedIdx) == 0 {
				return nil, fmt.Errorf("model: block %d mode naive-skip requires masked indices", i)
			}
		}
	}

	ws := opts.WS
	x := m.embed(ws, latent, t, cond)
	ctx := m.buildContext(ws, cond)

	if opts.Record != nil {
		opts.Record.Blocks = make([]BlockActivations, len(m.Blocks))
	}
	// Block outputs ping-pong between two buffers, so everything else a
	// block takes from ws is released at its boundary and the arena holds
	// one block's working set, not the step's. Without an arena each block
	// allocates its own output.
	var bufs [2]*tensor.Matrix
	if ws != nil {
		bufs = [2]*tensor.Matrix{ws.GetRaw(x.R, x.C), ws.GetRaw(x.R, x.C)}
	}
	mark := ws.Mark()
	rc := opts.ReuseCache
	for i, blk := range m.Blocks {
		xin, dst := x, bufs[i%2] // x is the embedding or bufs[(i-1)%2]
		if rc != nil && i < len(opts.Reuse) && opts.Reuse[i] && rc.Has(i) &&
			modes[i] != ExecNaiveSkip {
			x = rc.Apply(ws, dst, i, x, modes[i], opts.Cached, opts.MaskedIdx)
			if opts.Record != nil {
				opts.Record.Blocks[i] = BlockActivations{Y: x.Clone()}
			}
			continue
		}
		switch modes[i] {
		case ExecFull:
			var rec *BlockActivations
			if opts.Record != nil {
				rec = &opts.Record.Blocks[i]
			}
			x = blk.forward(ws, dst, x, ctx, rec, opts.RecordKV)
		case ExecCachedY, ExecCachedKV:
			ca := opts.Cached.Blocks[i]
			k, v := ca.K, ca.V
			if modes[i] == ExecCachedY {
				k, v = derivedKV(opts.Derived, modes, i)
			}
			if k != nil {
				x = blk.forwardMaskedKV(ws, dst, x, ca.Y, k, v, ctx, opts.MaskedIdx)
			} else {
				x = blk.forwardMasked(ws, dst, x, ca.Y, ctx, opts.MaskedIdx)
			}
		case ExecNaiveSkip:
			x = blk.forwardNaiveSkip(ws, dst, x, ctx, opts.MaskedIdx)
		default:
			return nil, fmt.Errorf("model: block %d: unknown exec mode %v", i, modes[i])
		}
		if opts.Record != nil && modes[i] != ExecFull {
			opts.Record.Blocks[i] = BlockActivations{Y: x.Clone()}
		}
		if rc != nil {
			// The residual rows that matter are the ones Apply would touch:
			// all rows under full execution, masked rows under the cached
			// modes (unmasked rows replenish from the template either way).
			rows := opts.MaskedIdx
			if modes[i] == ExecFull {
				rows = nil
			}
			rc.Update(i, xin, x, rows, t)
		}
		ws.Release(mark)
	}
	out := ws.GetRaw(x.R, m.Cfg.LatentChannels)
	tensor.MatMulInto(out, x, m.outProj)
	return out, nil
}

// derivedKV returns block i's derived K and V, or nil when there are none
// or the block's input does not carry the previous block's cached output in
// its unmasked rows: the first block's input is the embedding (which adds
// the request's own prompt), and a predecessor that computed all tokens
// (a bubble-free pipeline hole) or passed its input through (naive skip)
// hands on rows the cache has never seen.
func derivedKV(d *StepActivations, modes []ExecMode, i int) (k, v *tensor.Matrix) {
	if d == nil || i >= len(d.Blocks) || !Replenished(modes, i) {
		return nil, nil
	}
	return d.Blocks[i].K, d.Blocks[i].V
}

// Replenished reports whether block i's input carries the previous block's
// cached output in its unmasked rows under modes — the condition for
// derived K/V to stand in for block i's own projections.
func Replenished(modes []ExecMode, i int) bool {
	return i > 0 && (modes[i-1] == ExecCachedY || modes[i-1] == ExecCachedKV)
}

// DeriveKV computes the derived K/V of one cached step: for every block
// after the first, K = LN1(Y')·WK and V = LN1(Y')·WV of the previous
// block's cached output Y'. A mask-aware step splices its computed rows
// into a copy of Y' (Block.finishMasked), so the next block's unmasked
// input rows are rows of Y' whatever the request, and their K/V are a
// function of the template alone; LN1 and GEMM rows being independent, the
// derived rows have the bits the block would compute. Intermediates come
// from ws; the result is heap-allocated in one piece (DerivedKVBytes).
func (m *Model) DeriveKV(ws *tensor.Arena, cached *StepActivations) *StepActivations {
	out := &StepActivations{Blocks: make([]BlockActivations, len(m.Blocks))}
	slab := make([]float32, DerivedKVBytes(cached)/4)
	mark := ws.Mark()
	for i := 1; i < len(m.Blocks); i++ {
		y := cached.Blocks[i-1].Y
		n := len(y.Data)
		k, v := tensor.FromSlice(y.R, y.C, slab[:n:n]), tensor.FromSlice(y.R, y.C, slab[n:2*n:2*n])
		slab = slab[2*n:]
		m.Blocks[i].projectKV(ws, y, k, v)
		ws.Release(mark)
		out.Blocks[i] = BlockActivations{K: k, V: v}
	}
	return out
}

// DerivedKVBytes returns the size of DeriveKV's result for cached.
func DerivedKVBytes(cached *StepActivations) int64 {
	var n int64
	for _, b := range cached.Blocks[:max(len(cached.Blocks)-1, 0)] {
		n += 2 * 4 * int64(len(b.Y.Data))
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

// embed maps the latent into hidden space and adds timestep and prompt
// conditioning (all token-wise).
func (m *Model) embed(ws *tensor.Arena, latent *tensor.Matrix, t int, cond []float32) *tensor.Matrix {
	x := ws.GetRaw(latent.R, m.Cfg.Hidden)
	tensor.MatMulInto(x, latent, m.inProj)
	var temb []float32
	if t >= 0 && t < m.timeEmb.R {
		temb = m.timeEmb.Row(t)
	} else {
		temb = m.timestepRows(t, t+1).Data
	}
	for i := 0; i < x.R; i++ {
		row := x.Row(i)
		pos := m.posEmb.Row(i)
		for j := range row {
			row[j] += temb[j] + pos[j]
			if cond != nil {
				row[j] += cond[j]
			}
		}
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
