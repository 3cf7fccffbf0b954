package img

import (
	"bytes"
	"fmt"
	"image"
	_ "image/jpeg" // register decoders
	_ "image/png"
)

// Decode parses PNG or JPEG bytes into an Image.
func Decode(data []byte) (*Image, error) {
	src, _, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("img: decode: %w", err)
	}
	b := src.Bounds()
	out := New(b.Dy(), b.Dx())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bb, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			out.Set(y, x, float32(r)/65535, float32(g)/65535, float32(bb)/65535)
		}
	}
	return out, nil
}

// Resize scales the image to h×w with bilinear interpolation.
func Resize(im *Image, h, w int) *Image {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("img: invalid resize target %d×%d", h, w))
	}
	out := New(h, w)
	for y := 0; y < h; y++ {
		sy := (float32(y) + 0.5) * float32(im.H) / float32(h)
		y0 := int(sy - 0.5)
		fy := sy - 0.5 - float32(y0)
		y1 := y0 + 1
		if y0 < 0 {
			y0, y1, fy = 0, 0, 0
		}
		if y1 >= im.H {
			y1 = im.H - 1
		}
		for x := 0; x < w; x++ {
			sx := (float32(x) + 0.5) * float32(im.W) / float32(w)
			x0 := int(sx - 0.5)
			fx := sx - 0.5 - float32(x0)
			x1 := x0 + 1
			if x0 < 0 {
				x0, x1, fx = 0, 0, 0
			}
			if x1 >= im.W {
				x1 = im.W - 1
			}
			blend := func(c int) float32 {
				p := func(yy, xx int) float32 { return im.Pix[(yy*im.W+xx)*3+c] }
				top := p(y0, x0)*(1-fx) + p(y0, x1)*fx
				bot := p(y1, x0)*(1-fx) + p(y1, x1)*fx
				return top*(1-fy) + bot*fy
			}
			out.Set(y, x, blend(0), blend(1), blend(2))
		}
	}
	return out
}
