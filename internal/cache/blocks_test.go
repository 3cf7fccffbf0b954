package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"flashps/internal/diffusion"
	"flashps/internal/img"
	"flashps/internal/tensor"
)

func TestTemplateCacheSerializationRoundTrip(t *testing.T) {
	tc := newTemplateCache(t, 11)
	var buf bytes.Buffer
	if err := tc.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := diffusion.ReadTemplateCache(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TemplateID != tc.TemplateID {
		t.Fatalf("id %d vs %d", back.TemplateID, tc.TemplateID)
	}
	if !tensor.Equal(back.Z0, tc.Z0) || !tensor.Equal(back.Noise, tc.Noise) {
		t.Fatal("latents mutated")
	}
	if len(back.Cond) != len(tc.Cond) {
		t.Fatal("cond length mutated")
	}
	for i := range tc.Cond {
		if back.Cond[i] != tc.Cond[i] {
			t.Fatal("cond mutated")
		}
	}
	if len(back.Steps) != len(tc.Steps) {
		t.Fatal("step count mutated")
	}
	for si := range tc.Steps {
		for bi := range tc.Steps[si].Blocks {
			a, b := tc.Steps[si].Blocks[bi], back.Steps[si].Blocks[bi]
			if !tensor.Equal(a.Y, b.Y) {
				t.Fatalf("step %d block %d Y mutated", si, bi)
			}
			if (a.K == nil) != (b.K == nil) || (a.V == nil) != (b.V == nil) {
				t.Fatal("K/V presence mutated")
			}
		}
	}
	if back.SizeBytes() != tc.SizeBytes() {
		t.Fatal("size mutated")
	}
}

func TestReadTemplateCacheRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("FPTC\xff\xff\xff\xff"), // bad version
		append([]byte("FPTC\x01\x00\x00\x00"), bytes.Repeat([]byte{0xff}, 20)...),
	}
	for i, data := range cases {
		if _, err := diffusion.ReadTemplateCache(bytes.NewReader(data)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestBlockStoreLoadChecksLength(t *testing.T) {
	// Load decodes the blocks as they stream in; a block that lost or
	// gained bytes on disk must still fail against the manifest's length,
	// and a missing block must fail outright.
	damage := map[string]func(path string) error{
		"truncated": func(path string) error { return os.Truncate(path, 100) },
		"extended": func(path string) error {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write(make([]byte, 8))
			return err
		},
		"missing": os.Remove,
	}
	for name, fn := range damage {
		bs, err := NewBlockStore(t.TempDir(), 4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := bs.Save(7, newTemplateCache(t, 7)); err != nil {
			t.Fatal(err)
		}
		blocks := bs.manifests[spillKey{id: 7}].Blocks
		if err := fn(bs.blockPath(blocks[len(blocks)-1])); err != nil {
			t.Fatal(err)
		}
		if _, err := bs.Load(7); err == nil {
			t.Fatalf("Load accepted a template whose last block was %s", name)
		}
	}
}

func TestBlockStoreRoundTrip(t *testing.T) {
	bs, err := NewBlockStore(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTemplateCache(t, 12)
	if bs.Has(12) {
		t.Fatal("Has before Save")
	}
	if err := bs.Save(12, tc); err != nil {
		t.Fatal(err)
	}
	if !bs.Has(12) || bs.Bytes(12) <= 0 {
		t.Fatal("Has/Bytes after Save")
	}
	back, err := bs.Load(12)
	if err != nil {
		t.Fatal(err)
	}
	if back.SizeBytes() != tc.SizeBytes() || !tensor.Equal(back.Z0, tc.Z0) {
		t.Fatal("block round trip mutated cache")
	}
	if _, err := bs.Load(99); err == nil {
		t.Fatal("missing template loaded")
	}
	if !bs.Delete(12) {
		t.Fatal("Delete returned false for present template")
	}
	if bs.Has(12) {
		t.Fatal("Has after Delete")
	}
	if bs.Delete(12) {
		t.Fatal("double delete should report absent")
	}
	if d := bs.Dedup(); d.Templates != 0 || d.PhysicalBytes != 0 {
		t.Fatalf("empty store dedup stats = %+v", d)
	}
}

// TestBlockStoreRecoversManifests pins restart recovery: a new BlockStore
// over an existing spill dir must see the previous process's templates.
func TestBlockStoreRecoversManifests(t *testing.T) {
	dir := t.TempDir()
	bs, err := NewBlockStore(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTemplateCache(t, 13)
	if err := bs.Save(13, tc); err != nil {
		t.Fatal(err)
	}
	re, err := NewBlockStore(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Has(13) {
		t.Fatal("reopened store lost template")
	}
	back, err := re.Load(13)
	if err != nil {
		t.Fatal(err)
	}
	if back.SizeBytes() != tc.SizeBytes() {
		t.Fatal("recovered template mutated")
	}
	if ids := re.IDs(); len(ids) != 1 || ids[0] != 13 {
		t.Fatalf("IDs = %v", ids)
	}
}

// TestBlockDedupRefcount is the content-addressed dedup contract: two
// templates with identical serialized bytes share every physical block;
// deleting one must leave the shared blocks (and the survivor's data)
// intact, and only the last delete may remove them.
func TestBlockDedupRefcount(t *testing.T) {
	dir := t.TempDir()
	bs, err := NewBlockStore(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTemplateCache(t, 14)
	if err := bs.Save(1, tc); err != nil {
		t.Fatal(err)
	}
	if err := bs.Save(2, tc); err != nil {
		t.Fatal(err)
	}
	d := bs.Dedup()
	if d.Templates != 2 {
		t.Fatalf("Templates = %d", d.Templates)
	}
	if d.SharedBlocks != d.Blocks || d.Blocks == 0 {
		t.Fatalf("identical templates should share all %d blocks, shared %d", d.Blocks, d.SharedBlocks)
	}
	if d.LogicalBytes != 2*d.PhysicalBytes {
		t.Fatalf("logical %d != 2× physical %d", d.LogicalBytes, d.PhysicalBytes)
	}
	if r := d.Ratio(); r != 2 {
		t.Fatalf("dedup ratio = %g, want 2", r)
	}
	blocks, err := filepath.Glob(filepath.Join(dir, "blocks", "*.blk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != d.Blocks {
		t.Fatalf("%d block files on disk, stats say %d", len(blocks), d.Blocks)
	}

	// Delete one of the two: every shared block must survive.
	if !bs.Delete(1) {
		t.Fatal("delete template 1")
	}
	after, err := filepath.Glob(filepath.Join(dir, "blocks", "*.blk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(blocks) {
		t.Fatalf("delete of one sharer removed blocks: %d → %d", len(blocks), len(after))
	}
	back, err := bs.Load(2)
	if err != nil {
		t.Fatalf("survivor unreadable after sharer delete: %v", err)
	}
	if back.SizeBytes() != tc.SizeBytes() || !tensor.Equal(back.Z0, tc.Z0) {
		t.Fatal("survivor corrupted after sharer delete")
	}
	// Last reference gone → blocks are garbage-collected.
	if !bs.Delete(2) {
		t.Fatal("delete template 2")
	}
	final, err := filepath.Glob(filepath.Join(dir, "blocks", "*.blk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != 0 {
		t.Fatalf("%d orphan blocks after last delete", len(final))
	}
}

func TestBlockStoreUsesEngineOutput(t *testing.T) {
	// End-to-end: a cache staged from the spill tier must still drive a
	// correct mask-aware edit (bit-identical output to the in-memory cache).
	cfg := cacheTestModelCfg()
	e, err := diffusion.NewEngine(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	h, w := e.Codec.ImageSize(cfg.LatentH, cfg.LatentW)
	tc, _, err := e.PrepareTemplate(9, img.SynthTemplate(9, h, w), "p", false)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := NewBlockStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bs.Save(9, tc); err != nil {
		t.Fatal(err)
	}
	staged, err := bs.Load(9)
	if err != nil {
		t.Fatal(err)
	}
	m := maskRect(cfg.LatentH, cfg.LatentW)
	resMem, err := e.Edit(diffusion.EditRequest{Template: tc, Mask: m, Seed: 1, Mode: diffusion.EditCachedY})
	if err != nil {
		t.Fatal(err)
	}
	resDisk, err := e.Edit(diffusion.EditRequest{Template: staged, Mask: m, Seed: 1, Mode: diffusion.EditCachedY})
	if err != nil {
		t.Fatal(err)
	}
	if img.MSE(resMem.Image, resDisk.Image) != 0 {
		t.Fatal("disk-staged cache produced different output")
	}
}
