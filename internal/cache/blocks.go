package cache

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"flashps/internal/diffusion"
)

// DefaultBlockBytes is the content-addressed chunk size of the spill
// tier. Template caches for the same model config are mostly identical
// byte runs when prepared from related images, and the FPTC layout keeps
// tensor payloads position-stable, so fixed-size chunking dedups well.
const DefaultBlockBytes = 256 << 10

// spillKey names one spilled object: a template's Y form, or its derived
// form (diffusion.TemplateCache.DerivedForm), valid only beside the Y form
// it was derived from.
type spillKey struct {
	id      uint64
	derived bool
}

// blockManifest maps one spilled object onto content-addressed blocks.
type blockManifest struct {
	ID uint64 `json:"id"`
	// Form is "derived" for a derived form, empty for the Y form (the only
	// one manifests written before the other existed describe).
	Form       string   `json:"form,omitempty"`
	BlockBytes int      `json:"block_bytes"`
	Bytes      int64    `json:"bytes"`
	Blocks     []string `json:"blocks"`
}

// DedupStats summarizes the spill tier's content-addressed storage.
type DedupStats struct {
	Templates     int   // spilled templates, either form or both
	Blocks        int   // distinct live blocks
	SharedBlocks  int   // blocks referenced by more than one template
	LogicalBytes  int64 // sum of object sizes as stored by callers
	PhysicalBytes int64 // bytes actually held on disk
}

// Ratio is logical/physical bytes: 1.0 means no sharing, >1 means dedup
// is saving space.
func (s DedupStats) Ratio() float64 {
	if s.PhysicalBytes <= 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

// BlockStore is the disk spill tier: serialized template caches are
// split into fixed-size blocks, each stored once under its SHA-256 and
// refcounted across templates, with a small JSON manifest per template.
// Identical templates (and identical prefixes of near-identical ones)
// share physical blocks; deleting one template only deletes blocks no
// other manifest references. A template has up to two objects, each with
// its manifest: its Y form and its derived form.
type BlockStore struct {
	mu         sync.Mutex
	dir        string
	blockBytes int
	manifests  map[spillKey]*blockManifest
	refs       map[string]int // block hash → referencing manifests
	// pool, when set, is the storage derived forms are read into
	// (diffusion.ReadTemplateCacheWith).
	pool *diffusion.SlabPool
}

// NewBlockStore opens (or creates) a spill directory, rebuilding block
// refcounts from the manifests found there so a restarted server resumes
// with its spilled templates intact. A derived form whose Y form is gone
// is removed.
func NewBlockStore(dir string, blockBytes int) (*BlockStore, error) {
	if blockBytes <= 0 {
		blockBytes = DefaultBlockBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "blocks"), 0o755); err != nil {
		return nil, fmt.Errorf("cache: create spill dir: %w", err)
	}
	s := &BlockStore{
		dir:        dir,
		blockBytes: blockBytes,
		manifests:  make(map[spillKey]*blockManifest),
		refs:       make(map[string]int),
	}
	names, err := filepath.Glob(filepath.Join(dir, "manifest-*.json"))
	if err != nil {
		return nil, err
	}
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			continue
		}
		var m blockManifest
		if json.Unmarshal(raw, &m) != nil || len(m.Blocks) == 0 || m.Form != "" && m.Form != formDerived {
			continue
		}
		s.manifests[spillKey{m.ID, m.Form == formDerived}] = &m
		for _, h := range m.Blocks {
			s.refs[h]++
		}
	}
	for k := range s.manifests {
		if _, y := s.manifests[spillKey{id: k.id}]; k.derived && !y {
			s.deleteLocked(k)
		}
	}
	return s, nil
}

// formDerived is a derived form's blockManifest.Form.
const formDerived = "derived"

// Dir returns the spill directory.
func (s *BlockStore) Dir() string { return s.dir }

func (s *BlockStore) manifestPath(k spillKey) string {
	if k.derived {
		return filepath.Join(s.dir, fmt.Sprintf("manifest-%d-derived.json", k.id))
	}
	return filepath.Join(s.dir, fmt.Sprintf("manifest-%d.json", k.id))
}

func (s *BlockStore) blockPath(hash string) string {
	return filepath.Join(s.dir, "blocks", hash+".blk")
}

// Save serializes the template cache into content-addressed blocks and
// writes its manifest atomically, as id's derived form when tc is one and
// as its Y form otherwise. Re-saving an existing object releases the old
// manifest's blocks after the new one lands.
func (s *BlockStore) Save(id uint64, tc *diffusion.TemplateCache) error {
	k := spillKey{id, tc.IsDerivedForm()}
	// Sized up front (activations plus headers): a buffer left to grow by
	// doubling holds three times the template at its peak.
	var buf bytes.Buffer
	buf.Grow(int(tc.SizeBytes()*65/64) + 1<<12)
	if err := tc.Serialize(&buf); err != nil {
		return fmt.Errorf("cache: serialize template %d: %w", id, err)
	}
	raw := buf.Bytes()
	hashes := make([]string, 0, (len(raw)+s.blockBytes-1)/s.blockBytes)
	for off := 0; off < len(raw); off += s.blockBytes {
		end := off + s.blockBytes
		if end > len(raw) {
			end = len(raw)
		}
		sum := sha256.Sum256(raw[off:end])
		hashes = append(hashes, hex.EncodeToString(sum[:]))
	}

	s.mu.Lock()
	defer s.mu.Unlock()

	// Write blocks that aren't already live (atomic temp+rename so a
	// crash never leaves a truncated block under a valid hash).
	for i, h := range hashes {
		if s.refs[h] > 0 {
			continue
		}
		if _, err := os.Stat(s.blockPath(h)); err == nil {
			continue // orphan from an earlier crash; content-addressed, so reusable
		}
		off := i * s.blockBytes
		end := off + s.blockBytes
		if end > len(raw) {
			end = len(raw)
		}
		if err := atomicWrite(s.blockPath(h), raw[off:end]); err != nil {
			return fmt.Errorf("cache: write block: %w", err)
		}
	}

	m := &blockManifest{ID: id, BlockBytes: s.blockBytes, Bytes: int64(len(raw)), Blocks: hashes}
	if k.derived {
		m.Form = formDerived
	}
	enc, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := atomicWrite(s.manifestPath(k), enc); err != nil {
		return fmt.Errorf("cache: write manifest %d: %w", id, err)
	}

	old := s.manifests[k]
	s.manifests[k] = m
	for _, h := range hashes {
		s.refs[h]++
	}
	if old != nil {
		s.releaseLocked(old)
	}
	return nil
}

// Load reads a spilled template's Y form back, verifying its length
// against the manifest. The blocks are decoded as they stream off the disk:
// a promotion is the serving path's largest allocation, so the template is
// materialized once, as matrices, and never as a reassembled byte image.
func (s *BlockStore) Load(id uint64) (*diffusion.TemplateCache, error) {
	return s.load(spillKey{id: id})
}

// load reads one object back, as Load does the Y form.
func (s *BlockStore) load(k spillKey) (*diffusion.TemplateCache, error) {
	id := k.id
	s.mu.Lock()
	m, ok := s.manifests[k]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cache: template %d: %w", id, ErrNotFound)
	}
	blocks := &blockReader{store: s, blocks: m.Blocks}
	defer blocks.close()
	// A read at least as long as the buffer that finds it empty bypasses it
	// (bufio.Reader). A derived form's step runs (160–192 KB each for
	// sd21-sim) are such reads behind small headers, so a 4 KB buffer
	// leaves them all but uncopied. A Y form interleaves headers with 16 KB
	// matrices, which go through the buffer at any size; 64 KB takes one
	// read call per four of them.
	size := 4 << 10
	if !k.derived {
		size = 64 << 10
	}
	r := bufio.NewReaderSize(blocks, size)
	tc, err := diffusion.ReadTemplateCacheWith(r, s.pool)
	if err == nil {
		_, err = io.Copy(io.Discard, r) // whatever follows counts against the manifest
	}
	if err != nil {
		return nil, fmt.Errorf("cache: read template %d: %w", id, err)
	}
	if blocks.n != m.Bytes {
		return nil, fmt.Errorf("cache: template %d has %d bytes on disk, manifest says %d", id, blocks.n, m.Bytes)
	}
	if tc.IsDerivedForm() != k.derived {
		tc.Release()
		return nil, fmt.Errorf("cache: template %d: the object on disk is of the other form", id)
	}
	return tc, nil
}

// blockReader reads a manifest's block files back to back.
type blockReader struct {
	store  *BlockStore
	blocks []string // hashes not yet opened
	f      *os.File // block being read, nil between blocks
	n      int64    // bytes delivered so far
}

func (r *blockReader) Read(p []byte) (int, error) {
	for {
		if r.f == nil {
			if len(r.blocks) == 0 {
				return 0, io.EOF
			}
			f, err := os.Open(r.store.blockPath(r.blocks[0]))
			if err != nil {
				return 0, err
			}
			r.f, r.blocks = f, r.blocks[1:]
		}
		n, err := r.f.Read(p)
		r.n += int64(n)
		if err == io.EOF {
			r.close()
			err = nil
		}
		if n > 0 || err != nil {
			return n, err
		}
	}
}

func (r *blockReader) close() {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
}

// Has reports whether a spilled Y form of the template exists.
func (s *BlockStore) Has(id uint64) bool { return s.has(spillKey{id: id}) }

func (s *BlockStore) has(k spillKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.manifests[k]
	return ok
}

// Bytes returns the logical size of a spilled template's Y form, or 0 if
// absent.
func (s *BlockStore) Bytes(id uint64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.manifests[spillKey{id: id}]; ok {
		return m.Bytes
	}
	return 0
}

// Delete removes both of a template's objects — the derived form first, so
// that a crash between the two never leaves it without its Y form — and
// any blocks no other manifest still references. Deleting an absent id is
// a no-op returning false.
func (s *BlockStore) Delete(id uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.deleteLocked(spillKey{id, true})
	return s.deleteLocked(spillKey{id: id}) || d
}

// deleteKey removes one object, reporting whether there was one.
func (s *BlockStore) deleteKey(k spillKey) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deleteLocked(k)
}

func (s *BlockStore) deleteLocked(k spillKey) bool {
	m, ok := s.manifests[k]
	if !ok {
		return false
	}
	delete(s.manifests, k)
	_ = os.Remove(s.manifestPath(k))
	s.releaseLocked(m)
	return true
}

// releaseLocked drops one reference per block of m, removing block files
// that reach zero references.
func (s *BlockStore) releaseLocked(m *blockManifest) {
	for _, h := range m.Blocks {
		s.refs[h]--
		if s.refs[h] <= 0 {
			delete(s.refs, h)
			_ = os.Remove(s.blockPath(h))
		}
	}
}

// IDs returns the spilled template ids, either form, in ascending order.
func (s *BlockStore) IDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]uint64, 0, len(s.manifests))
	for k := range s.manifests {
		if _, y := s.manifests[spillKey{id: k.id}]; k.derived && y {
			continue // listed with its Y form
		}
		ids = append(ids, k.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Dedup returns the spill tier's storage accounting.
func (s *BlockStore) Dedup() DedupStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := DedupStats{}
	sizes := make(map[string]int64, len(s.refs))
	for k, m := range s.manifests {
		if _, y := s.manifests[spillKey{id: k.id}]; !k.derived || !y {
			st.Templates++
		}
		st.LogicalBytes += m.Bytes
		rem := m.Bytes
		for _, h := range m.Blocks {
			bb := int64(m.BlockBytes)
			if rem < bb {
				bb = rem
			}
			rem -= bb
			sizes[h] = bb
		}
	}
	for h, n := range s.refs {
		st.Blocks++
		st.PhysicalBytes += sizes[h]
		if n > 1 {
			st.SharedBlocks++
		}
	}
	return st
}

// atomicWrite writes data to path via a temp file + rename in the same
// directory.
func atomicWrite(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, "."+strings.TrimSuffix(base, filepath.Ext(base))+"-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
