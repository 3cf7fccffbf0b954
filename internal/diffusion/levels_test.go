package diffusion

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"image/png"
	"runtime"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// wholeEditHashes are SHA-256 prefixes of one edit's final latent (its
// little-endian bytes) and PNG per stand-in model, at a vector level and at
// the portable one. The latents were recorded at the child of b1f3570,
// which fused exp's and GeLU's arithmetic (fma32 in vecmath.go). The PNGs
// were re-recorded at every level at the child of fda438e, which replaced
// EncodePNG's image/png encoder with its own: the encoder changed, the
// pixels did not (decoded, the parent's PNGs and these have the same RGBA
// bytes at the portable, avx2 and avx512 levels). The two vector levels must
// both reproduce the first pair — that is the cross-level contract (DESIGN
// §7) seen from the top of the stack — and the portable level the second
// (its PNGs are the vector levels': 8-bit pixels absorb the last-bit
// difference of the latents).
var wholeEditHashes = map[string]struct{ vector, portable [2]string }{
	"sd21-sim": {[2]string{"f1855afe648adbc2bca2cfdd", "2246a96e0285164e49d932b3"}, [2]string{"29f9d4f098e9a5e9bd7e4650", "2246a96e0285164e49d932b3"}},
	"sdxl-sim": {[2]string{"11b22c4f20a58cf186dc92b8", "52e5f34ef54cbf928064b161"}, [2]string{"b9c3263842d0f4437028abcc", "52e5f34ef54cbf928064b161"}},
	"flux-sim": {[2]string{"3f54a1253ed0ddc970baec78", "e9562c590ec44c232dba91cb"}, [2]string{"8acab1094c6ec1b80aee7c2d", "e9562c590ec44c232dba91cb"}},
}

// wholeEdit prepares a template on cfg and runs one mask-aware edit of it —
// 13 masked tokens (three full row groups and a one-row tail per lane; the
// stacked lanes make other tails), K/V derived — returning the hashes of the
// final latent and the PNG.
func wholeEdit(t *testing.T, cfg model.Config) [2]string {
	t.Helper()
	res := servedEdit(t, cfg, 13)
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:12]) }
	return [2]string{sum(tensor.LEBytes(res.FinalLatent.Data)), sum(mustPNG(t, res.Image))}
}

// servedEdit is the edit wholeEdit hashes, with masked tokens masked.
func servedEdit(t *testing.T, cfg model.Config, masked int) *EditResult {
	t.Helper()
	e, err := NewEngine(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tpl, _, err := e.PrepareTemplate(3, img.SynthTemplate(3, h, w), "studio photo", false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Edit(EditRequest{Template: tpl, Mask: mask.Blob(tensor.NewRNG(8), cfg.LatentH, cfg.LatentW, masked),
		Prompt: "a red scarf", Seed: 77, Mode: EditCachedY})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServedPNGNearStdlibSize bounds what EncodePNG's run-only deflate
// costs in bytes: a served image — each model's codec mosaic at 64, 96 and
// 128 px, edited under a small and a large mask — encodes in at most 1.5×
// what image/png's default compression makes of it.
func TestServedPNGNearStdlibSize(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("the served pixels are every level's (wholeEditHashes), and the vector levels edit far faster")
	}
	for _, cfg := range model.AllSimConfigs() {
		for _, share := range []int{5, 50} {
			res := servedEdit(t, cfg, cfg.Tokens()*share/100)
			got := mustPNG(t, res.Image)
			pixels, err := png.Decode(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			var std bytes.Buffer
			if err := png.Encode(&std, pixels); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s, %d%% masked: %d bytes, image/png %d (%.2f×)", cfg.Name, share, len(got), std.Len(), float64(len(got))/float64(std.Len()))
			if len(got)*2 > std.Len()*3 {
				t.Errorf("%s, %d%% masked: %d bytes, over 1.5× image/png's %d", cfg.Name, share, len(got), std.Len())
			}
		}
	}
}

// TestWholeEditEveryLevel runs one whole edit per model — hidden 64/96/128,
// head width 16/24/16, so full 32-column tiles, opmask tails and heads
// narrower than a ZMM tile all occur — at the process's kernel level and
// compares it with the parent commit's bits; `make test-levels` runs it at
// each level the host has.
func TestWholeEditEveryLevel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the recorded bits are amd64's: %s may contract the portable GEMM's multiply and add", runtime.GOARCH)
	}
	for _, cfg := range model.AllSimConfigs() {
		want := wholeEditHashes[cfg.Name].portable
		if tensor.HasAVX2() {
			want = wholeEditHashes[cfg.Name].vector
		}
		if got := wholeEdit(t, cfg); got != want {
			t.Errorf("%s at kernel level %s: latent, PNG = %q, the parent commit's %q", cfg.Name, tensor.KernelLevel(), got, want)
		}
	}
	t.Logf("kernel level %s", tensor.KernelLevel())
}
