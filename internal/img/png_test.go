package img

import (
	"bytes"
	"fmt"
	"image"
	"image/png"
	"math/rand"
	"testing"
)

// quantised is the 8-bit value EncodePNG must store for channel value v.
func quantised(v float32) uint8 { return uint8(v*255 + 0.5) }

// decodesTo fails t unless data is a PNG whose pixels are im's, quantised,
// channel for channel.
func decodesTo(t testing.TB, data []byte, im *Image) {
	t.Helper()
	dec, err := png.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("%d×%d: %v", im.H, im.W, err)
	}
	if b := dec.Bounds(); b != image.Rect(0, 0, im.W, im.H) {
		t.Fatalf("%d×%d decoded with bounds %v", im.H, im.W, b)
	}
	rgba, ok := dec.(*image.RGBA)
	if !ok {
		t.Fatalf("%d×%d decoded as %T, want an opaque RGB image", im.H, im.W, dec)
	}
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			p := rgba.Pix[rgba.PixOffset(x, y):]
			r, g, b := im.At(y, x)
			if p[0] != quantised(r) || p[1] != quantised(g) || p[2] != quantised(b) || p[3] != 255 {
				t.Fatalf("%d×%d at (%d,%d): decoded %v, want %v", im.H, im.W, y, x, p[:4],
					[]uint8{quantised(r), quantised(g), quantised(b), 255})
			}
		}
	}
}

func mustEncode(t testing.TB, im *Image) []byte {
	t.Helper()
	data, err := EncodePNG(im)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// randomImage fills an h×w image with seeded uniform channel values.
func randomImage(seed int64, h, w int) *Image {
	rng := rand.New(rand.NewSource(seed))
	im := New(h, w)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	return im
}

// mosaic is a served-image stand-in: SynthTemplate at px×px with every 8×8
// patch painted its mean colour, as diffusion.Codec paints a latent token.
func mosaic(seed uint64, px int) *Image {
	const patch = 8
	src := SynthTemplate(seed, px, px)
	im := New(px, px)
	for ty := 0; ty < px; ty += patch {
		for tx := 0; tx < px; tx += patch {
			var mean [3]float32
			for y := ty; y < ty+patch; y++ {
				for x := tx; x < tx+patch; x++ {
					r, g, b := src.At(y, x)
					mean[0], mean[1], mean[2] = mean[0]+r, mean[1]+g, mean[2]+b
				}
			}
			for y := ty; y < ty+patch; y++ {
				for x := tx; x < tx+patch; x++ {
					im.Set(y, x, mean[0]/(patch*patch), mean[1]/(patch*patch), mean[2]/(patch*patch))
				}
			}
		}
	}
	return im
}

func constant(h, w int, v float32) *Image {
	im := New(h, w)
	for i := range im.Pix {
		im.Pix[i] = v
	}
	return im
}

// testImages is every shape of input the encoder meets: seeded images of
// each size up to 33×33, the served mosaics, constant images and images of
// pure 0 and 1 values.
func testImages() map[string]*Image {
	ims := map[string]*Image{}
	for h := 1; h <= 33; h++ {
		for w := 1; w <= 33; w++ {
			ims[fmt.Sprintf("random %d×%d", h, w)] = randomImage(int64(h*100+w), h, w)
		}
	}
	for _, px := range []int{64, 96, 128} {
		ims[fmt.Sprintf("mosaic %d", px)] = mosaic(uint64(px), px)
	}
	for _, v := range []float32{0, 0.25, 0.5, 1} {
		ims[fmt.Sprintf("constant %g", v)] = constant(19, 23, v)
	}
	binary := randomImage(7, 31, 29)
	for i, v := range binary.Pix {
		binary.Pix[i] = float32(int(v * 2))
	}
	ims["pure 0 and 1"] = binary
	return ims
}

func TestEncodePNGExactPixels(t *testing.T) {
	for name, im := range testImages() {
		t.Run(name, func(t *testing.T) { decodesTo(t, mustEncode(t, im), im) })
	}
}

// filteredLen is the length of an image's filtered scanlines.
func filteredLen(im *Image) int { return im.H * (1 + 3*im.W) }

func TestEncodePNGSizeBound(t *testing.T) {
	for name, im := range testImages() {
		if n, bound := len(mustEncode(t, im)), filteredLen(im)*9/8+72; n > bound {
			t.Errorf("%s: %d bytes, over the fixed-Huffman bound %d", name, n, bound)
		}
	}
}

func TestEncodePNGRepeatable(t *testing.T) {
	// The encoder reuses its buffers across calls: interleaving images of
	// different sizes, larger and smaller than the one before, must give
	// each the same bytes every time, and bytes no later call overwrites.
	ims := []*Image{mosaic(1, 128), randomImage(1, 5, 70), mosaic(2, 64), constant(3, 3, 0.5), randomImage(2, 40, 9)}
	first := make([][]byte, len(ims))
	for round := 0; round < 3; round++ {
		for i, im := range ims {
			got := mustEncode(t, im)
			if round == 0 {
				first[i] = got
				continue
			}
			if !bytes.Equal(got, first[i]) {
				t.Fatalf("round %d, image %d (%d×%d): bytes differ from the first encode", round, i, im.H, im.W)
			}
		}
	}
	for i, im := range ims {
		decodesTo(t, first[i], im)
	}
}

func TestEncodePNGRejectsInvalidImage(t *testing.T) {
	for _, im := range []*Image{{}, {H: 2, W: 2, Pix: make([]float32, 11)}} {
		if _, err := EncodePNG(im); err == nil {
			t.Errorf("%d×%d with %d channels encoded", im.H, im.W, len(im.Pix))
		}
	}
}

func FuzzEncodePNG(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 0})
	f.Add(uint8(7), uint8(12), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(63), uint8(2), []byte{255, 255, 0, 0, 128})
	f.Fuzz(func(t *testing.T, h, w uint8, pix []byte) {
		// Channel values come from pix two bytes at a time, cycled: a short
		// pix gives a periodic image, full of runs.
		im := New(1+int(h%64), 1+int(w%64))
		if len(pix) >= 2 {
			for i := range im.Pix {
				j := 2 * i % (len(pix) - len(pix)%2)
				im.Pix[i] = float32(uint16(pix[j])<<8|uint16(pix[j+1])) / 65535
			}
		}
		data := mustEncode(t, im)
		decodesTo(t, data, im)
		if bound := filteredLen(im)*9/8 + 72; len(data) > bound {
			t.Fatalf("%d×%d: %d bytes, over the bound %d", im.H, im.W, len(data), bound)
		}
	})
}

// BenchmarkEncodePNG encodes served-image stand-ins at the three stand-in
// models' sizes and reports the bytes of each PNG.
func BenchmarkEncodePNG(b *testing.B) {
	for _, px := range []int{64, 96, 128} {
		im := mosaic(3, px)
		b.Run(fmt.Sprintf("px=%d", px), func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				data, err := EncodePNG(im)
				if err != nil {
					b.Fatal(err)
				}
				n = len(data)
			}
			b.ReportMetric(float64(n), "B/png")
		})
	}
}
