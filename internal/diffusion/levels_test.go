package diffusion

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
	"flashps/internal/tensor"
)

// wholeEditHashes are SHA-256 prefixes of one edit's final latent (its
// little-endian bytes) and PNG per stand-in model, at a vector level and at
// the portable one. The PNGs were taken at the commit before the AVX-512
// level existed (73af44c). The latents were re-recorded at the child of
// b1f3570, which fused exp's and GeLU's arithmetic (fma32 in vecmath.go):
// every latent moved in its last bits, every PNG stayed. The two vector
// levels must both reproduce the first pair — that is the cross-level
// contract (DESIGN §7) seen from the top of the stack — and the portable
// level the second (its PNGs are the vector levels': 8-bit pixels absorb
// the last-bit difference of the latents).
var wholeEditHashes = map[string]struct{ vector, portable [2]string }{
	"sd21-sim": {[2]string{"f1855afe648adbc2bca2cfdd", "5ba5029f87fcff444b126102"}, [2]string{"29f9d4f098e9a5e9bd7e4650", "5ba5029f87fcff444b126102"}},
	"sdxl-sim": {[2]string{"11b22c4f20a58cf186dc92b8", "9a49fe638db5aea45d53ee80"}, [2]string{"b9c3263842d0f4437028abcc", "9a49fe638db5aea45d53ee80"}},
	"flux-sim": {[2]string{"3f54a1253ed0ddc970baec78", "f30f95b2b16fbea250f9fed1"}, [2]string{"8acab1094c6ec1b80aee7c2d", "f30f95b2b16fbea250f9fed1"}},
}

// wholeEdit prepares a template on cfg and runs one mask-aware edit of it —
// 13 masked tokens (three full row groups and a one-row tail per lane; the
// stacked lanes make other tails), K/V derived — returning the hashes of the
// final latent and the PNG.
func wholeEdit(t *testing.T, cfg model.Config) [2]string {
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
	res, err := e.Edit(EditRequest{Template: tpl, Mask: mask.Blob(tensor.NewRNG(8), cfg.LatentH, cfg.LatentW, 13),
		Prompt: "a red scarf", Seed: 77, Mode: EditCachedY})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:12]) }
	return [2]string{sum(tensor.LEBytes(res.FinalLatent.Data)), sum(mustPNG(t, res.Image))}
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
