// Package diffusion implements the iterative denoising loop of the FlashPS
// numeric engine: a deterministic DDIM-style noise schedule, a toy latent
// codec (the stand-in for the VAE), and an Engine that runs full-image
// generation, mask-aware editing with cached activations (the paper's
// §3.1/§4.2 design), the Fig 7 KV-cache variant, the Fig 1 naive-skip
// baseline, and a TeaCache-style step-skipping baseline.
package diffusion

import (
	"fmt"
	"math"
)

// Schedule holds the cumulative signal levels ᾱ_t of a linear-beta DDIM
// schedule with Steps steps. Index 0 is the cleanest step; index Steps-1 is
// the noisiest (denoising iterates t = Steps-1 … 0).
type Schedule struct {
	Steps    int
	AlphaBar []float64
}

// NewSchedule returns a linear-beta schedule with the given number of steps.
func NewSchedule(steps int) *Schedule {
	if steps <= 0 {
		panic(fmt.Sprintf("diffusion: invalid step count %d", steps))
	}
	s := &Schedule{Steps: steps, AlphaBar: make([]float64, steps)}
	const betaStart, betaEnd = 1e-3, 0.05
	prod := 1.0
	for t := 0; t < steps; t++ {
		beta := betaStart
		if steps > 1 {
			beta += (betaEnd - betaStart) * float64(t) / float64(steps-1)
		}
		prod *= 1 - beta
		s.AlphaBar[t] = prod
	}
	return s
}

// SignalNoise returns (√ᾱ_t, √(1-ᾱ_t)) for step t.
func (s *Schedule) SignalNoise(t int) (signal, noise float64) {
	ab := s.AlphaBar[t]
	return math.Sqrt(ab), math.Sqrt(1 - ab)
}

// DDIMStep applies the deterministic DDIM update to a single scalar latent
// value x given the predicted noise eps at step t, returning the step t-1
// value. At t == 0 it returns the predicted clean value x0.
func (s *Schedule) DDIMStep(x, eps float64, t int) float64 {
	return s.ddimCoeffs(t).apply(x, eps)
}

// ddimCoeffs holds the four scalars of step t's DDIM update, so a latent's
// L×C values share one set of square roots instead of taking them each.
type ddimCoeffs struct {
	st, nt float64 // √ᾱ_t, √(1-ᾱ_t)
	sp, np float64 // the same at t-1; unused when last
	last   bool    // t == 0: the update returns x0
}

func (s *Schedule) ddimCoeffs(t int) ddimCoeffs {
	c := ddimCoeffs{last: t == 0}
	c.st, c.nt = s.SignalNoise(t)
	if !c.last {
		c.sp, c.np = s.SignalNoise(t - 1)
	}
	return c
}

func (c ddimCoeffs) apply(x, eps float64) float64 {
	x0 := (x - c.nt*eps) / c.st
	if c.last {
		return x0
	}
	return c.sp*x0 + c.np*eps
}
