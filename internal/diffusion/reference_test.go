package diffusion

import (
	"fmt"
	"math"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// refBackbone is the accuracy oracle for the float32 vector kernels: the
// flat transformer denoiser evaluated in float64 with the formulas the
// tensor package used before them (math.Exp softmax, math.Tanh GeLU,
// two-pass LayerNorm), over the same float32 weights as the model it
// shadows. Only what an sd21-sim edit needs: ExecFull and ExecCachedY, no
// cross-attention.
type refBackbone struct {
	m *model.Model
	// The embedding weights are unexported in model.Model; they are its
	// constructor's first three draws, re-derived here from the same seed.
	inProj, outProj, timeW, posEmb *tensor.Matrix
}

func newRefBackbone(cfg model.Config, seed uint64) *refBackbone {
	rng := tensor.NewRNG(seed)
	return &refBackbone{
		m:       model.MustNew(cfg, seed),
		inProj:  tensor.Randn(rng, cfg.LatentChannels, cfg.Hidden, 1/math.Sqrt(float64(cfg.LatentChannels))),
		outProj: tensor.Randn(rng, cfg.Hidden, cfg.LatentChannels, 1/math.Sqrt(float64(cfg.Hidden))),
		timeW:   tensor.Randn(rng, cfg.Hidden, cfg.Hidden, 1/math.Sqrt(float64(cfg.Hidden))),
		posEmb:  model.PositionalEmbedding2D(cfg.LatentH, cfg.LatentW, cfg.Hidden),
	}
}

func (r *refBackbone) Config() model.Config { return r.m.Cfg }

// mat64 is a row-major float64 matrix.
type mat64 struct {
	r, c int
	d    []float64
}

func newMat64(r, c int) *mat64 { return &mat64{r, c, make([]float64, r*c)} }

func (m *mat64) row(i int) []float64 { return m.d[i*m.c : (i+1)*m.c] }

func toMat64(m *tensor.Matrix) *mat64 {
	out := newMat64(m.R, m.C)
	for i, v := range m.Data {
		out.d[i] = float64(v)
	}
	return out
}

func (m *mat64) toMatrix() *tensor.Matrix {
	out := tensor.New(m.r, m.c)
	for i, v := range m.d {
		out.Data[i] = float32(v)
	}
	return out
}

func (m *mat64) gather(idx []int) *mat64 {
	out := newMat64(len(idx), m.c)
	for i, r := range idx {
		copy(out.row(i), m.row(r))
	}
	return out
}

func (m *mat64) mul(w *tensor.Matrix) *mat64 {
	out := newMat64(m.r, w.C)
	for i := 0; i < m.r; i++ {
		for p, a := range m.row(i) {
			for j, b := range w.Row(p) {
				out.d[i*w.C+j] += a * float64(b)
			}
		}
	}
	return out
}

func (m *mat64) add(o *mat64) *mat64 {
	for i, v := range o.d {
		m.d[i] += v
	}
	return m
}

func (m *mat64) layerNorm(gamma, beta []float32) *mat64 {
	out := newMat64(m.r, m.c)
	for i := 0; i < m.r; i++ {
		row := m.row(i)
		var mean, varsum float64
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		for _, v := range row {
			varsum += (v - mean) * (v - mean)
		}
		inv := 1 / math.Sqrt(varsum/float64(len(row))+1e-5)
		for j, v := range row {
			out.d[i*m.c+j] = (v-mean)*inv*float64(gamma[j]) + float64(beta[j])
		}
	}
	return out
}

func (m *mat64) gelu() *mat64 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range m.d {
		m.d[i] = 0.5 * v * (1 + math.Tanh(c*(v+0.044715*v*v*v)))
	}
	return m
}

func refAttention(q, k, v *mat64, heads int) *mat64 {
	d := q.c / heads
	scale := 1 / math.Sqrt(float64(d))
	out := newMat64(q.r, q.c)
	w := make([]float64, k.r)
	for i := 0; i < q.r; i++ {
		for h := 0; h < heads; h++ {
			off := h * d
			max := math.Inf(-1)
			for j := range w {
				var s float64
				for c := 0; c < d; c++ {
					s += q.d[i*q.c+off+c] * k.d[j*k.c+off+c]
				}
				w[j] = s * scale
				max = math.Max(max, w[j])
			}
			var sum float64
			for j := range w {
				w[j] = math.Exp(w[j] - max)
				sum += w[j]
			}
			for j, wj := range w {
				for c := 0; c < d; c++ {
					out.d[i*q.c+off+c] += wj / sum * v.d[j*v.c+off+c]
				}
			}
		}
	}
	return out
}

// refBlock evaluates one block on x. With idx nil every row is computed;
// otherwise only the idx rows are (attending over all rows' K/V) and the
// rest of the output comes from cachedY, as Block.ForwardMaskedWS does.
func refBlock(b *model.Block, x *mat64, cachedY *tensor.Matrix, idx []int) *mat64 {
	ln1 := x.layerNorm(b.LN1Gamma, b.LN1Beta)
	xq, lnq := x, ln1
	if idx != nil {
		xq, lnq = x.gather(idx), ln1.gather(idx)
	}
	attn := refAttention(lnq.mul(b.WQ), ln1.mul(b.WK), ln1.mul(b.WV), b.Heads)
	h := attn.mul(b.WO).add(xq)
	y := h.layerNorm(b.LN2Gamma, b.LN2Beta).mul(b.W1).gelu().mul(b.W2).add(h)
	if idx == nil {
		return y
	}
	out := toMat64(cachedY)
	for i, r := range idx {
		copy(out.row(r), y.row(i))
	}
	return out
}

func (r *refBackbone) ForwardStep(latent *tensor.Matrix, t int, cond []float32, opts model.StepOptions) (*tensor.Matrix, error) {
	cfg := r.m.Cfg
	x := toMat64(latent).mul(r.inProj)
	sin := tensor.FromSlice(1, cfg.Hidden, model.TimestepEmbedding(t, cfg.Hidden))
	temb := toMat64(sin).mul(r.timeW)
	for i := 0; i < x.r; i++ {
		for j := range x.row(i) {
			x.d[i*x.c+j] += 4*temb.d[j] + float64(r.posEmb.At(i, j)) // timestepGain = 4
			if cond != nil {
				x.d[i*x.c+j] += float64(cond[j])
			}
		}
	}
	if opts.Record != nil {
		opts.Record.Blocks = make([]model.BlockActivations, len(r.m.Blocks))
	}
	for i, blk := range r.m.Blocks {
		mode := model.ExecFull
		if i < len(opts.Modes) {
			mode = opts.Modes[i]
		}
		switch mode {
		case model.ExecFull:
			x = refBlock(blk, x, nil, nil)
		case model.ExecCachedY:
			x = refBlock(blk, x, opts.Cached.Blocks[i].Y, opts.MaskedIdx)
		default:
			return nil, fmt.Errorf("refBackbone: mode %v not modelled", mode)
		}
		if opts.Record != nil {
			opts.Record.Blocks[i] = model.BlockActivations{Y: x.toMatrix()}
		}
	}
	return x.mul(r.outProj).toMatrix(), nil
}

// TestEditMatchesFloat64Reference bounds what the float32 exp/tanh/
// LayerNorm kernels and the FMA GEMMs cost in accuracy where it matters:
// the final latent of a whole sd21-sim edit (10 guided steps, 6 blocks),
// against the same edit on the float64 reference denoiser.
func TestEditMatchesFloat64Reference(t *testing.T) {
	const seed = 42
	cfg := model.SD21Sim
	fast, err := NewEngine(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewEngineWith(newRefBackbone(cfg, seed))
	if err != nil {
		t.Fatal(err)
	}
	// 7 of 64 tokens: one full 4-row GEMM tile plus a 3-row remainder.
	m := mask.Blob(tensor.NewRNG(7), cfg.LatentH, cfg.LatentW, 7)

	type run struct {
		tplOut       *img.Image
		full, masked *EditResult
	}
	edit := func(e *Engine) (r run) {
		h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
		tc, tplOut, err := e.PrepareTemplate(7, img.SynthTemplate(7, h, w), "studio photo", false)
		if err != nil {
			t.Fatal(err)
		}
		r.tplOut = tplOut
		run := func(mode EditMode) *EditResult {
			res, err := e.Edit(EditRequest{Template: tc, Mask: m, Prompt: "a red scarf", Seed: 9, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		r.full, r.masked = run(EditFull), run(EditCachedY)
		return r
	}
	got, want := edit(fast), edit(ref)

	const tol = 1e-4
	if d := tensor.MaxAbsDiff(got.full.FinalLatent, want.full.FinalLatent); d > tol {
		t.Errorf("full edit: final latent differs from the float64 reference by %g > %g", d, tol)
	} else {
		t.Logf("full edit: max abs latent diff vs float64 reference %g", d)
	}
	if d := tensor.MaxAbsDiff(got.masked.FinalLatent, want.masked.FinalLatent); d > tol {
		t.Errorf("masked edit: final latent differs from the float64 reference by %g > %g", d, tol)
	} else {
		t.Logf("masked edit: max abs latent diff vs float64 reference %g", d)
	}

	// The mask-aware guarantee is exact, not approximate: every unmasked
	// pixel of the masked edit is the template's regenerated pixel.
	patch := fast.Codec.Patch
	for ly := 0; ly < cfg.LatentH; ly++ {
		for lx := 0; lx < cfg.LatentW; lx++ {
			if m.At(ly, lx) {
				continue
			}
			for py := 0; py < patch; py++ {
				for px := 0; px < patch; px++ {
					r0, g0, b0 := got.tplOut.At(ly*patch+py, lx*patch+px)
					r1, g1, b1 := got.masked.Image.At(ly*patch+py, lx*patch+px)
					if r0 != r1 || g0 != g1 || b0 != b1 {
						t.Fatalf("unmasked pixel (%d,%d) is not template-exact", ly*patch+py, lx*patch+px)
					}
				}
			}
		}
	}
}
