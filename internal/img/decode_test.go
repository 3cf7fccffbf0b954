package img

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"testing"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	im := SynthTemplate(3, 24, 20)
	data, err := EncodePNG(im)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.H != im.H || back.W != im.W {
		t.Fatalf("size %dx%d vs %dx%d", back.H, back.W, im.H, im.W)
	}
	// 8-bit quantization bounds the round-trip error.
	if mse := MSE(im, back); mse > 1e-4 {
		t.Fatalf("round-trip MSE = %g", mse)
	}
}

func TestEncodePNGReusedBuffersByteIdentical(t *testing.T) {
	// EncodePNG recycles encoder state between calls; whatever was encoded
	// before, the bytes must be those of a fresh png.Encode.
	for _, seed := range []uint64{1, 2, 1, 3, 3, 1} {
		im := SynthTemplate(seed, 40+int(seed), 32)
		got, err := EncodePNG(im)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := png.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := png.Encode(&want, decoded.(*image.RGBA)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d: pooled encode differs from a fresh png.Encode", seed)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := Decode([]byte("not an image")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestResizeIdentity(t *testing.T) {
	im := SynthTemplate(5, 16, 16)
	same := Resize(im, 16, 16)
	if mse := MSE(im, same); mse > 1e-6 {
		t.Fatalf("identity resize MSE = %g", mse)
	}
}

func TestResizeDownUp(t *testing.T) {
	im := SynthTemplate(7, 32, 32)
	small := Resize(im, 16, 16)
	if small.H != 16 || small.W != 16 {
		t.Fatalf("downsize shape %dx%d", small.H, small.W)
	}
	big := Resize(small, 32, 32)
	// Lossy but structurally similar: PSNR must stay reasonable.
	if psnr := PSNR(im, big); psnr < 12 {
		t.Fatalf("down-up PSNR = %g too low", psnr)
	}
}

func TestResizeConstantImage(t *testing.T) {
	im := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			im.Set(y, x, 0.25, 0.5, 0.75)
		}
	}
	out := Resize(im, 13, 5)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			r, g, b := out.At(y, x)
			if math.Abs(float64(r)-0.25) > 1e-5 || math.Abs(float64(g)-0.5) > 1e-5 || math.Abs(float64(b)-0.75) > 1e-5 {
				t.Fatalf("constant image resize wrong at (%d,%d): %v %v %v", y, x, r, g, b)
			}
		}
	}
}

func TestResizePanicsOnBadTarget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Resize(New(4, 4), 0, 5)
}
