package model

import (
	"fmt"
	"math"
	"sort"

	"flashps/internal/tensor"
)

// The UNet variant mirrors the architecture of SD2.1/SDXL (the paper's
// footnote: UNet-based models run transformer blocks at multiple latent
// resolutions, accounting for ≈82% of compute). An encoder downsamples the
// token grid, a middle stage runs at the coarsest resolution, and a
// decoder mirrors the encoder with skip connections. Mask-aware execution
// carries through every resolution: the base-grid mask is max-pooled to
// each stage's grid, so a pooled token is masked whenever any of its base
// tokens is.

// UNetStage describes one resolution stage.
type UNetStage struct {
	// Blocks is the number of transformer blocks in the stage.
	Blocks int
	// Factor is the downsampling factor relative to the base grid
	// (1, 2, 4, …). Consecutive stages must differ by exactly 2×.
	Factor int
}

// UNetConfig describes the multi-resolution backbone. The decoder mirrors
// Encoder in reverse automatically.
type UNetConfig struct {
	Name             string
	LatentH, LatentW int
	Hidden           int
	Heads            int
	FFNMult          int
	Steps            int
	LatentChannels   int
	// Encoder lists the downsampling stages (first must have Factor 1).
	Encoder []UNetStage
	// Middle runs at the coarsest resolution.
	Middle UNetStage
}

// Validate checks the configuration.
func (c UNetConfig) Validate() error {
	base := Config{
		Name: c.Name, LatentH: c.LatentH, LatentW: c.LatentW, Hidden: c.Hidden,
		Heads: c.Heads, NumBlocks: 1, FFNMult: c.FFNMult, Steps: c.Steps,
		LatentChannels: c.LatentChannels,
	}
	if err := base.Validate(); err != nil {
		return err
	}
	if len(c.Encoder) == 0 {
		return fmt.Errorf("model: unet %q: empty encoder", c.Name)
	}
	if c.Encoder[0].Factor != 1 {
		return fmt.Errorf("model: unet %q: first encoder stage must have factor 1", c.Name)
	}
	prev := 0
	for i, s := range c.Encoder {
		if s.Blocks <= 0 {
			return fmt.Errorf("model: unet %q: encoder stage %d has %d blocks", c.Name, i, s.Blocks)
		}
		if i > 0 && s.Factor != prev*2 {
			return fmt.Errorf("model: unet %q: encoder stage %d factor %d must be 2× the previous (%d)",
				c.Name, i, s.Factor, prev)
		}
		prev = s.Factor
	}
	if c.Middle.Blocks <= 0 {
		return fmt.Errorf("model: unet %q: middle stage has %d blocks", c.Name, c.Middle.Blocks)
	}
	if c.Middle.Factor != prev*2 {
		return fmt.Errorf("model: unet %q: middle factor %d must be 2× the last encoder factor (%d)",
			c.Name, c.Middle.Factor, prev)
	}
	if c.LatentH%c.Middle.Factor != 0 || c.LatentW%c.Middle.Factor != 0 {
		return fmt.Errorf("model: unet %q: grid %d×%d not divisible by max factor %d",
			c.Name, c.LatentH, c.LatentW, c.Middle.Factor)
	}
	return nil
}

// TotalBlocks returns the flattened block count (encoder + middle +
// mirrored decoder).
func (c UNetConfig) TotalBlocks() int {
	n := c.Middle.Blocks
	for _, s := range c.Encoder {
		n += 2 * s.Blocks
	}
	return n
}

// SD21UNetSim is a laptop-scale UNet stand-in with the SD2.1-style
// encoder–middle–decoder shape.
var SD21UNetSim = UNetConfig{
	Name: "sd21-unet-sim", LatentH: 8, LatentW: 8, Hidden: 64, Heads: 4,
	FFNMult: 4, Steps: 10, LatentChannels: 4,
	Encoder: []UNetStage{{Blocks: 2, Factor: 1}, {Blocks: 2, Factor: 2}},
	Middle:  UNetStage{Blocks: 2, Factor: 4},
}

// unetStage is a stage in execution order.
type unetStage struct {
	factor int
	blocks []*Block
	// skipOf indexes the encoder stage whose pre-pool output is added
	// after upsampling into this decoder stage; -1 for encoder/middle.
	skipOf int
}

// UNet is the multi-resolution backbone; it satisfies diffusion.Backbone
// with blocks indexed in flattened execution order.
type UNet struct {
	UCfg   UNetConfig
	stages []unetStage

	inProj  *tensor.Matrix
	outProj *tensor.Matrix
	timeW   *tensor.Matrix

	finalGamma, finalBeta []float32
	posEmb                *tensor.Matrix
}

// NewUNet constructs the backbone with deterministic weights from seed.
func NewUNet(cfg UNetConfig, seed uint64) (*UNet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(seed)
	u := &UNet{
		UCfg:    cfg,
		inProj:  tensor.Randn(rng, cfg.LatentChannels, cfg.Hidden, 1/math.Sqrt(float64(cfg.LatentChannels))),
		outProj: tensor.Randn(rng, cfg.Hidden, cfg.LatentChannels, 1/math.Sqrt(float64(cfg.Hidden))),
		timeW:   tensor.Randn(rng, cfg.Hidden, cfg.Hidden, 1/math.Sqrt(float64(cfg.Hidden))),
	}
	u.finalGamma = ones(cfg.Hidden)
	u.finalBeta = make([]float32, cfg.Hidden)
	u.posEmb = PositionalEmbedding2D(cfg.LatentH, cfg.LatentW, cfg.Hidden)
	newStage := func(spec UNetStage, skipOf int) unetStage {
		st := unetStage{factor: spec.Factor, skipOf: skipOf}
		for i := 0; i < spec.Blocks; i++ {
			blk := NewBlock(cfg.Hidden, cfg.FFNMult, rng)
			blk.Heads = cfg.Heads
			st.blocks = append(st.blocks, blk)
		}
		return st
	}
	for _, s := range cfg.Encoder {
		u.stages = append(u.stages, newStage(s, -1))
	}
	u.stages = append(u.stages, newStage(cfg.Middle, -1))
	for i := len(cfg.Encoder) - 1; i >= 0; i-- {
		u.stages = append(u.stages, newStage(cfg.Encoder[i], i))
	}
	return u, nil
}

// Config implements diffusion.Backbone: the base grid with the flattened
// block count.
func (u *UNet) Config() Config {
	return Config{
		Name: u.UCfg.Name, LatentH: u.UCfg.LatentH, LatentW: u.UCfg.LatentW,
		Hidden: u.UCfg.Hidden, Heads: u.UCfg.Heads,
		NumBlocks: u.UCfg.TotalBlocks(), FFNMult: u.UCfg.FFNMult,
		Steps: u.UCfg.Steps, LatentChannels: u.UCfg.LatentChannels,
	}
}

// ForwardStep implements diffusion.Backbone. Modes/Cached are indexed in
// flattened execution order (encoder stages, middle, mirrored decoder);
// MaskedIdx is given on the base grid and max-pooled per stage.
func (u *UNet) ForwardStep(latent *tensor.Matrix, t int, cond []float32, opts StepOptions) (*tensor.Matrix, error) {
	cfg := u.Config()
	L := cfg.Tokens()
	if latent.R != L || latent.C != cfg.LatentChannels {
		return nil, fmt.Errorf("model: unet latent shape %v, want %d×%d", latent, L, cfg.LatentChannels)
	}
	if len(cond) != 0 && len(cond) != cfg.Hidden {
		return nil, fmt.Errorf("model: unet cond length %d, want 0 or %d", len(cond), cfg.Hidden)
	}
	total := cfg.NumBlocks
	modes := opts.Modes
	if len(modes) < total {
		padded := make([]ExecMode, total)
		copy(padded, modes)
		modes = padded
	}
	for i, mode := range modes[:total] {
		switch mode {
		case ExecFull, ExecNaiveSkip, ExecCachedY:
			if mode != ExecFull && len(opts.MaskedIdx) == 0 {
				return nil, fmt.Errorf("model: unet block %d mode %v requires masked indices", i, mode)
			}
			if mode == ExecCachedY {
				if opts.Cached == nil || len(opts.Cached.Blocks) <= i || opts.Cached.Blocks[i].Y == nil {
					return nil, fmt.Errorf("model: unet block %d mode cached-y requires cached activations", i)
				}
			}
		case ExecCachedKV:
			return nil, fmt.Errorf("model: unet does not support cached-kv execution")
		default:
			return nil, fmt.Errorf("model: unet block %d: unknown exec mode %v", i, modes[i])
		}
	}

	// Per-factor masked index sets (max-pool semantics).
	maskedByFactor := map[int][]int{1: opts.MaskedIdx}
	factor := 1
	for factor < u.UCfg.Middle.Factor {
		maskedByFactor[factor*2] = poolMaskedIdx(maskedByFactor[factor],
			u.UCfg.LatentH/factor, u.UCfg.LatentW/factor)
		factor *= 2
	}

	// Embed at the base grid. Intermediates come from the optional
	// workspace (the per-call map/sort bookkeeping below still allocates;
	// the flat Model backbone is the zero-allocation path).
	ws := opts.WS
	x := ws.Get(latent.R, cfg.Hidden)
	tensor.MatMulInto(x, latent, u.inProj)
	sin := ws.Get(1, cfg.Hidden)
	TimestepEmbeddingInto(sin.Data, t)
	temb := ws.Get(1, cfg.Hidden)
	tensor.MatMulInto(temb, sin, u.timeW)
	tensor.Scale(temb, 4)
	for i := 0; i < x.R; i++ {
		row := x.Row(i)
		pos := u.posEmb.Row(i)
		for j := range row {
			row[j] += temb.Data[j] + pos[j]
			if cond != nil {
				row[j] += cond[j]
			}
		}
	}

	if opts.Record != nil {
		opts.Record.Blocks = make([]BlockActivations, total)
	}

	skips := make([]*tensor.Matrix, len(u.UCfg.Encoder))
	flat := 0
	curFactor := 1
	for _, st := range u.stages {
		// Resolution transitions.
		for curFactor < st.factor {
			if st.skipOf < 0 {
				// Encoder/middle direction: remember the skip, then pool.
				skips[encoderIndexOfFactor(u.UCfg.Encoder, curFactor)] = x
			}
			x = avgPool2(ws, x, u.UCfg.LatentH/curFactor, u.UCfg.LatentW/curFactor)
			curFactor *= 2
		}
		for curFactor > st.factor {
			curFactor /= 2
			x = unpool2(ws, x, u.UCfg.LatentH/curFactor, u.UCfg.LatentW/curFactor)
		}
		if st.skipOf >= 0 && skips[st.skipOf] != nil {
			// Variance-preserving skip merge keeps the residual stream
			// bounded across resolution stages (and the decoded latent
			// inside the codec's dynamic range).
			merged := ws.Get(x.R, x.C)
			tensor.AddInto(merged, x, skips[st.skipOf])
			x = tensor.Scale(merged, float32(1/math.Sqrt2))
		}

		maskedIdx := maskedByFactor[st.factor]
		for _, blk := range st.blocks {
			switch modes[flat] {
			case ExecFull:
				var rec *BlockActivations
				if opts.Record != nil {
					rec = &opts.Record.Blocks[flat]
				}
				x = blk.forward(ws, nil, x, nil, rec, opts.RecordKV)
			case ExecCachedY:
				x = blk.ForwardMaskedWS(ws, x, opts.Cached.Blocks[flat].Y, nil, maskedIdx)
				if opts.Record != nil {
					opts.Record.Blocks[flat] = BlockActivations{Y: x.Clone()}
				}
			case ExecNaiveSkip:
				x = blk.ForwardNaiveSkipWS(ws, x, nil, maskedIdx)
				if opts.Record != nil {
					opts.Record.Blocks[flat] = BlockActivations{Y: x.Clone()}
				}
			}
			flat++
		}
	}
	// Final norm (token-wise) keeps ε_θ in the schedule's expected range
	// regardless of how the multi-resolution residual stream grew; it
	// preserves the mask-aware invariants because it acts per token.
	normed := ws.Get(x.R, x.C)
	tensor.LayerNormRowsInto(normed, x, u.finalGamma, u.finalBeta, 1e-5)
	out := ws.Get(normed.R, cfg.LatentChannels)
	tensor.MatMulInto(out, normed, u.outProj)
	return out, nil
}

// encoderIndexOfFactor returns the encoder stage index with the given
// factor.
func encoderIndexOfFactor(enc []UNetStage, factor int) int {
	for i, s := range enc {
		if s.Factor == factor {
			return i
		}
	}
	return len(enc) - 1
}

// avgPool2 average-pools an (h·w)×C token matrix on an h×w grid down to
// (h/2·w/2)×C.
func avgPool2(ws *tensor.Arena, x *tensor.Matrix, h, w int) *tensor.Matrix {
	oh, ow := h/2, w/2
	out := ws.Get(oh*ow, x.C)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			orow := out.Row(oy*ow + ox)
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					irow := x.Row((oy*2+dy)*w + ox*2 + dx)
					for c := range orow {
						orow[c] += irow[c] * 0.25
					}
				}
			}
		}
	}
	return out
}

// unpool2 nearest-neighbor-upsamples an (h/2·w/2)×C token matrix back to
// an h×w grid.
func unpool2(ws *tensor.Arena, x *tensor.Matrix, h, w int) *tensor.Matrix {
	iw := w / 2
	out := ws.Get(h*w, x.C)
	for y := 0; y < h; y++ {
		for xx := 0; xx < w; xx++ {
			copy(out.Row(y*w+xx), x.Row((y/2)*iw+xx/2))
		}
	}
	return out
}

// poolMaskedIdx max-pools a masked index set from an h×w grid to the
// (h/2)×(w/2) grid: a pooled token is masked if any covered token is.
func poolMaskedIdx(masked []int, h, w int) []int {
	if len(masked) == 0 {
		return nil
	}
	ow := w / 2
	seen := make(map[int]bool)
	var out []int
	for _, idx := range masked {
		y, x := idx/w, idx%w
		p := (y/2)*ow + x/2
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	// Keep indices sorted for deterministic gather order.
	sort.Ints(out)
	return out
}
