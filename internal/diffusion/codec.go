package diffusion

import (
	"fmt"

	"flashps/internal/img"
	"flashps/internal/tensor"
)

// Codec is the toy latent codec standing in for the VAE: each latent token
// corresponds to a Patch×Patch pixel block, and the latent channels are a
// fixed invertible-enough linear code of the block's mean color plus a
// contrast feature. Every system under evaluation shares the same codec,
// so codec loss cancels out of all quality comparisons.
type Codec struct {
	// Patch is the pixel width/height of one latent token.
	Patch int
	// Channels is the latent channel count (≥ 3; channel 3, when present,
	// carries a contrast feature).
	Channels int
}

// NewCodec returns a codec with the given patch size and channel count.
func NewCodec(patch, channels int) (*Codec, error) {
	if patch <= 0 {
		return nil, fmt.Errorf("diffusion: invalid patch size %d", patch)
	}
	if channels < 3 {
		return nil, fmt.Errorf("diffusion: codec needs ≥3 channels, got %d", channels)
	}
	return &Codec{Patch: patch, Channels: channels}, nil
}

// ImageSize returns the pixel dimensions for a latent grid of lh×lw tokens.
func (c *Codec) ImageSize(lh, lw int) (h, w int) { return lh * c.Patch, lw * c.Patch }

// Encode maps an image to an (lh·lw)×Channels latent matrix. The image
// dimensions must be exactly (lh·Patch)×(lw·Patch). Latent values are
// centered around zero (pixel 0.5 maps to latent 0) and scaled to roughly
// unit magnitude, matching the dynamic range the denoiser expects.
func (c *Codec) Encode(im *img.Image, lh, lw int) (*tensor.Matrix, error) {
	wantH, wantW := c.ImageSize(lh, lw)
	if im.H != wantH || im.W != wantW {
		return nil, fmt.Errorf("diffusion: image %d×%d does not match latent grid %d×%d (patch %d)",
			im.H, im.W, lh, lw, c.Patch)
	}
	latent := tensor.New(lh*lw, c.Channels)
	for ly := 0; ly < lh; ly++ {
		for lx := 0; lx < lw; lx++ {
			var sr, sg, sb float64
			var sr2 float64
			n := float64(c.Patch * c.Patch)
			for py := 0; py < c.Patch; py++ {
				for px := 0; px < c.Patch; px++ {
					r, g, b := im.At(ly*c.Patch+py, lx*c.Patch+px)
					sr += float64(r)
					sg += float64(g)
					sb += float64(b)
					lum := 0.299*float64(r) + 0.587*float64(g) + 0.114*float64(b)
					sr2 += lum * lum
				}
			}
			row := latent.Row(ly*lw + lx)
			row[0] = float32((sr/n - 0.5) * 2)
			row[1] = float32((sg/n - 0.5) * 2)
			row[2] = float32((sb/n - 0.5) * 2)
			if c.Channels > 3 {
				meanLum := 0.299*sr/n + 0.587*sg/n + 0.114*sb/n
				variance := sr2/n - meanLum*meanLum
				if variance < 0 {
					variance = 0
				}
				row[3] = float32(variance * 4)
			}
		}
	}
	return latent, nil
}

// Decode maps a latent matrix back to an image, filling each token's patch
// with the decoded mean color. It is the exact inverse of Encode's color
// path for constant patches.
func (c *Codec) Decode(latent *tensor.Matrix, lh, lw int) (*img.Image, error) {
	if latent.R != lh*lw || latent.C != c.Channels {
		return nil, fmt.Errorf("diffusion: latent %v does not match grid %d×%d, %d channels",
			latent, lh, lw, c.Channels)
	}
	h, w := c.ImageSize(lh, lw)
	im := img.New(h, w)
	stride := 3 * w
	for ly := 0; ly < lh; ly++ {
		// Fill the first pixel row of this token row's patches, then copy
		// it into the patches' other rows.
		y := ly * c.Patch
		band := im.Pix[y*stride : (y+c.Patch)*stride]
		for lx := 0; lx < lw; lx++ {
			row := latent.Row(ly*lw + lx)
			im.Set(y, lx*c.Patch, row[0]/2+0.5, row[1]/2+0.5, row[2]/2+0.5)
			patch := band[3*lx*c.Patch : 3*(lx+1)*c.Patch]
			for n := 3; n < len(patch); n *= 2 {
				copy(patch[n:], patch[:n])
			}
		}
		for py := 1; py < c.Patch; py++ {
			copy(band[py*stride:], band[:stride])
		}
	}
	return im, nil
}
