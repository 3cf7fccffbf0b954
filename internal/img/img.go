// Package img provides a minimal float32 RGB image type, deterministic
// synthetic template generation (the stand-in for production image
// templates such as try-on model photos), and the PNG encoder every served
// image goes through.
package img

import (
	"fmt"
	"math"
	"os"

	"flashps/internal/tensor"
)

// Image is an H×W RGB image with float32 channels in [0, 1], row-major,
// interleaved (r, g, b).
type Image struct {
	H, W int
	Pix  []float32 // len = H*W*3
}

// New returns a black H×W image.
func New(h, w int) *Image {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("img: invalid size %d×%d", h, w))
	}
	return &Image{H: h, W: w, Pix: make([]float32, h*w*3)}
}

// At returns the (r, g, b) channels at pixel (y, x).
func (im *Image) At(y, x int) (r, g, b float32) {
	i := (y*im.W + x) * 3
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set assigns the pixel at (y, x), clamping channels to [0, 1].
func (im *Image) Set(y, x int, r, g, b float32) {
	i := (y*im.W + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = clamp01(r), clamp01(g), clamp01(b)
}

// Clone returns a deep copy.
func (im *Image) Clone() *Image {
	out := New(im.H, im.W)
	copy(out.Pix, im.Pix)
	return out
}

// clamp01 maps v into [0, 1], NaN to 0.
func clamp01(v float32) float32 {
	if !(v >= 0) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// MSE returns the mean squared error between a and b.
// It panics on size mismatch.
func MSE(a, b *Image) float64 {
	if a.H != b.H || a.W != b.W {
		panic("img: MSE size mismatch")
	}
	var sum float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		sum += d * d
	}
	return sum / float64(len(a.Pix))
}

// PSNR returns the peak signal-to-noise ratio in dB between a and b
// (max value 1.0). Identical images return +Inf.
func PSNR(a, b *Image) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	return -10 * math.Log10(mse)
}

// Gray returns the per-pixel luminance (Rec. 601) of the image.
func (im *Image) Gray() []float64 {
	out := make([]float64, im.H*im.W)
	for p := 0; p < im.H*im.W; p++ {
		i := p * 3
		out[p] = 0.299*float64(im.Pix[i]) + 0.587*float64(im.Pix[i+1]) + 0.114*float64(im.Pix[i+2])
	}
	return out
}

// SavePNG writes the image to path as EncodePNG renders it.
func (im *Image) SavePNG(path string) error {
	data, err := EncodePNG(im)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("img: save: %w", err)
	}
	return nil
}

// SynthTemplate deterministically renders a structured synthetic template
// image: a smooth two-tone gradient background with several solid shapes.
// It stands in for production image templates (model photos, product
// shots). The same id always renders the same image.
func SynthTemplate(id uint64, h, w int) *Image {
	rng := tensor.NewRNG(id)
	im := New(h, w)
	// Gradient background between two random colors.
	c0 := [3]float32{float32(rng.Float64()), float32(rng.Float64()), float32(rng.Float64())}
	c1 := [3]float32{float32(rng.Float64()), float32(rng.Float64()), float32(rng.Float64())}
	diag := rng.Float64() < 0.5
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var t float32
			if diag {
				t = float32(y+x) / float32(h+w-2)
			} else {
				t = float32(y) / float32(h-1)
			}
			im.Set(y, x, c0[0]+(c1[0]-c0[0])*t, c0[1]+(c1[1]-c0[1])*t, c0[2]+(c1[2]-c0[2])*t)
		}
	}
	// 3-6 solid shapes (circles and rectangles).
	nShapes := 3 + rng.Intn(4)
	for s := 0; s < nShapes; s++ {
		cr := float32(rng.Float64())
		cg := float32(rng.Float64())
		cb := float32(rng.Float64())
		if rng.Float64() < 0.5 {
			cy, cx := rng.Intn(h), rng.Intn(w)
			rad := 2 + rng.Intn(max(2, h/4))
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dy, dx := y-cy, x-cx
					if dy*dy+dx*dx <= rad*rad {
						im.Set(y, x, cr, cg, cb)
					}
				}
			}
		} else {
			y0, x0 := rng.Intn(h), rng.Intn(w)
			hh, ww := 1+rng.Intn(max(1, h/3)), 1+rng.Intn(max(1, w/3))
			for y := y0; y < min(h, y0+hh); y++ {
				for x := x0; x < min(w, x0+ww); x++ {
					im.Set(y, x, cr, cg, cb)
				}
			}
		}
	}
	return im
}
