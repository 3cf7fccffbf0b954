package diffusion

import (
	"bytes"
	"testing"

	"flashps/internal/img"
	"flashps/internal/mask"
	"flashps/internal/model"
)

// cfgTiny is a guided template small enough that every prefix of its
// encodings can be read in a test.
var cfgTiny = model.Config{
	Name: "tiny", LatentH: 2, LatentW: 2, Hidden: 8, Heads: 2, GuidanceScale: 1.5,
	NumBlocks: 2, FFNMult: 2, Steps: 2, LatentChannels: 4,
}

// tinyEncodings returns the encodings of one cfgTiny template: its Y form,
// its Y form with the K/V recorded beside Y, and its derived form.
func tinyEncodings(tb testing.TB) [3][]byte {
	tb.Helper()
	e, err := NewEngine(cfgTiny, 7)
	if err != nil {
		tb.Fatal(err)
	}
	h, w := e.Codec.ImageSize(cfgTiny.LatentH, cfgTiny.LatentW)
	var out [3][]byte
	for i, kv := range []bool{false, true} {
		tc, _, err := e.PrepareTemplate(3, img.SynthTemplate(3, h, w), "p", kv)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tc.Serialize(&buf); err != nil {
			tb.Fatal(err)
		}
		out[i] = buf.Bytes()
		if kv {
			continue
		}
		if _, err := e.Edit(EditRequest{Template: tc, Mask: mask.Rect(cfgTiny.LatentH, cfgTiny.LatentW, 0, 0, 1, 1),
			Prompt: "q", Seed: 1, Mode: EditCachedY}); err != nil {
			tb.Fatal(err)
		}
		var form bytes.Buffer
		if err := tc.DerivedForm().Serialize(&form); err != nil {
			tb.Fatal(err)
		}
		out[2] = form.Bytes()
	}
	return out
}

// TestTemplateCacheTruncationsRejected: every proper prefix of a Y form's
// and of a derived form's encoding is refused, and so is a derived form
// written as version 3, whose layout the reader no longer takes; the whole
// encodings are read.
func TestTemplateCacheTruncationsRejected(t *testing.T) {
	encs := tinyEncodings(t)
	for i, enc := range encs {
		if _, err := ReadTemplateCache(bytes.NewReader(enc)); err != nil {
			t.Fatalf("encoding %d: %v", i, err)
		}
		for n := range len(enc) {
			if _, err := ReadTemplateCache(bytes.NewReader(enc[:n])); err == nil {
				t.Fatalf("encoding %d cut to %d of %d bytes was read", i, n, len(enc))
			}
		}
	}
	v3 := bytes.Clone(encs[2])
	v3[4] = 3
	if _, err := ReadTemplateCache(bytes.NewReader(v3)); err == nil {
		t.Fatal("a version-3 derived form was read")
	}
}

// FuzzReadTemplateCache: any input is either refused or read as a template
// whose encoding is exactly the bytes the read consumed, and none panics.
// Derived forms are read into one pool throughout, so a slab recycled from
// an earlier input that the read did not overwrite shows as a mismatch.
func FuzzReadTemplateCache(f *testing.F) {
	for _, enc := range tinyEncodings(f) {
		f.Add(enc)
	}
	pool := NewSlabPool(1 << 20)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		tc, err := ReadTemplateCacheWith(r, pool)
		if err != nil {
			return
		}
		defer tc.Release()
		var buf bytes.Buffer
		if err := tc.Serialize(&buf); err != nil {
			t.Fatalf("a template read back does not serialize: %v", err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("read %d bytes, which serialize back as %d different ones", len(consumed), buf.Len())
		}
	})
}
