package img

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestNewAndSetAt(t *testing.T) {
	im := New(4, 5)
	im.Set(2, 3, 0.1, 0.5, 0.9)
	r, g, b := im.At(2, 3)
	if r != 0.1 || g != 0.5 || b != 0.9 {
		t.Fatalf("At = %v,%v,%v", r, g, b)
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 3)
}

func TestSetClamps(t *testing.T) {
	im := New(1, 1)
	im.Set(0, 0, -1, 2, 0.5)
	r, g, b := im.At(0, 0)
	if r != 0 || g != 1 || b != 0.5 {
		t.Fatalf("clamp failed: %v,%v,%v", r, g, b)
	}
}

func TestSetMapsNaNToZero(t *testing.T) {
	nan := float32(math.NaN())
	im := New(1, 2)
	im.Set(0, 0, nan, 0.5, nan)
	im.Set(0, 1, 1, nan, 0)
	if got := [6]float32(im.Pix); got != [6]float32{0, 0.5, 0, 1, 0, 0} {
		t.Fatalf("Set with NaN channels stored %v", got)
	}
	decodesTo(t, mustEncode(t, im), im) // a NaN channel is pixel 0
}

func TestMSEAndPSNR(t *testing.T) {
	a := New(2, 2)
	b := a.Clone()
	if MSE(a, b) != 0 {
		t.Fatal("identical images MSE != 0")
	}
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("identical images PSNR != +Inf")
	}
	b.Set(0, 0, 1, 1, 1)
	if MSE(a, b) <= 0 {
		t.Fatal("different images MSE <= 0")
	}
	if PSNR(a, b) <= 0 {
		t.Fatal("PSNR should be positive for small differences")
	}
}

func TestMSEPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MSE(New(2, 2), New(3, 3))
}

func TestGray(t *testing.T) {
	im := New(1, 2)
	im.Set(0, 0, 1, 1, 1)
	g := im.Gray()
	if math.Abs(g[0]-1) > 1e-6 {
		t.Fatalf("white luminance = %g", g[0])
	}
	if g[1] != 0 {
		t.Fatalf("black luminance = %g", g[1])
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	b := a.Clone()
	b.Set(0, 0, 1, 0, 0)
	if r, _, _ := a.At(0, 0); r != 0 {
		t.Fatal("Clone shares storage")
	}
}

func TestSynthTemplateDeterministic(t *testing.T) {
	a := SynthTemplate(42, 32, 32)
	b := SynthTemplate(42, 32, 32)
	if MSE(a, b) != 0 {
		t.Fatal("SynthTemplate not deterministic")
	}
	c := SynthTemplate(43, 32, 32)
	if MSE(a, c) == 0 {
		t.Fatal("different ids render identical templates")
	}
}

func TestSynthTemplateHasStructure(t *testing.T) {
	im := SynthTemplate(1, 48, 48)
	// Non-constant image: variance of luminance must be non-trivial.
	g := im.Gray()
	var mean float64
	for _, v := range g {
		mean += v
	}
	mean /= float64(len(g))
	var variance float64
	for _, v := range g {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(len(g))
	if variance < 1e-4 {
		t.Fatalf("template nearly constant (var=%g)", variance)
	}
}

func TestSavePNG(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.png")
	im := SynthTemplate(5, 16, 16)
	if err := im.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mustEncode(t, im)) {
		t.Fatal("SavePNG wrote other bytes than EncodePNG returns")
	}
	if err := im.SavePNG(filepath.Join(dir, "nodir", "x.png")); err == nil {
		t.Fatal("SavePNG to missing dir should fail")
	}
}
