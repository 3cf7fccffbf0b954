package diffusion

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"flashps/internal/model"
	"flashps/internal/tensor"
)

// Binary template-cache format, used by the disk tier of the hierarchical
// activation storage (§4.2). Layout (little endian):
//
//	magic "FPTC" | version u32 | templateID u64
//	cond: u32 len, f32…
//	Z0 matrix | Noise matrix
//	steps u32, then per step: blocks u32, per block:
//	  flags u8 (bit0 Y, bit1 K, bit2 V) followed by the present matrices
//	uncond flag u8; if 1, the unconditional pass's steps section follows
//	(classifier-free guidance caches, same layout)
//
// Version 4 is a derived form (TemplateCache.DerivedForm): the same layout,
// every block's flags 0, then
//
//	cache bytes u64 (TemplateCache.CacheBytes)
//	trajectory: u32 count, that many matrices
//	derived K/V of the conditional pass, then of the unconditional pass:
//	  steps u32, then per step: blocks u32, floats u32, per block a flag u8
//	  (1: present) followed by scale f32 when present, then the step's K/V
//	  as one run of floats f32 laid out as model.Model.DeriveKV lays out
//	  its slab: per present block the packed keys (H×L,
//	  tensor.PackedKeys.Matrix), then V (L×H)
//
// The template fixes L and H, so the run carries no shapes: floats is
// exactly 2·L·H per present block, and the reader fills a step's storage
// with one read. A matrix is rows u32, cols u32, then rows·cols f32, and a
// run of floats, a matrix's or a step's, is at most maxCacheDim long. A
// template with Y is written as version 2, as it always was. Versions 2 and
// 4 are read; version 3, the derived form with a header per matrix, is not
// (a spilled derived form can always be derived again from its Y form).
const (
	cacheMagic     = "FPTC"
	cacheVersion   = 2
	derivedVersion = 4
	maxCacheDim    = 1 << 24
)

// Serialize writes the template cache to w.
func (tc *TemplateCache) Serialize(w io.Writer) error {
	if _, err := w.Write([]byte(cacheMagic)); err != nil {
		return err
	}
	version := uint32(cacheVersion)
	if tc.form {
		version = derivedVersion
	}
	if err := writeU32(w, version); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, tc.TemplateID); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(tc.Cond))); err != nil {
		return err
	}
	for _, v := range tc.Cond {
		if err := writeU32(w, math.Float32bits(v)); err != nil {
			return err
		}
	}
	// One staging buffer serves every matrix of the cache, as on the
	// read side.
	scratch := make([]byte, 1<<14)
	if err := writeMatrix(w, tc.Z0, scratch); err != nil {
		return err
	}
	if err := writeMatrix(w, tc.Noise, scratch); err != nil {
		return err
	}
	if err := writeSteps(w, tc.Steps, scratch); err != nil {
		return err
	}
	uflag := byte(0)
	if tc.UncondSteps != nil {
		uflag = 1
	}
	if _, err := w.Write([]byte{uflag}); err != nil {
		return err
	}
	if uflag == 1 {
		if err := writeSteps(w, tc.UncondSteps, scratch); err != nil {
			return err
		}
	}
	if !tc.form {
		return nil
	}
	if err := binary.Write(w, binary.LittleEndian, tc.ybytes); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(tc.traj))); err != nil {
		return err
	}
	for _, m := range tc.traj {
		if err := writeMatrix(w, m, scratch); err != nil {
			return err
		}
	}
	if err := writeDerived(w, tc.derived.cond, scratch); err != nil {
		return err
	}
	return writeDerived(w, tc.derived.uncond, scratch)
}

func writeDerived(w io.Writer, steps []*model.DerivedStep, scratch []byte) error {
	if err := writeU32(w, uint32(len(steps))); err != nil {
		return err
	}
	for _, st := range steps {
		// The step's header, staged whole: blocks, floats and the flags.
		hdr := binary.LittleEndian.AppendUint32(scratch[:0], uint32(len(st.Blocks)))
		hdr = binary.LittleEndian.AppendUint32(hdr, 0)
		var floats int
		for _, b := range st.Blocks {
			if b.V == nil {
				hdr = append(hdr, 0)
				continue
			}
			hdr = binary.LittleEndian.AppendUint32(append(hdr, 1), math.Float32bits(b.K.Scale))
			floats += 2 * len(b.V.Data)
		}
		binary.LittleEndian.PutUint32(hdr[4:], uint32(floats))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		for _, b := range st.Blocks {
			if b.V == nil {
				continue
			}
			if err := writeFloats(w, b.K.Matrix().Data, scratch); err != nil {
				return err
			}
			if err := writeFloats(w, b.V.Data, scratch); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSteps(w io.Writer, steps []*model.StepActivations, scratch []byte) error {
	if err := writeU32(w, uint32(len(steps))); err != nil {
		return err
	}
	for _, st := range steps {
		if st == nil {
			if err := writeU32(w, 0); err != nil {
				return err
			}
			continue
		}
		if err := writeU32(w, uint32(len(st.Blocks))); err != nil {
			return err
		}
		for _, b := range st.Blocks {
			var flags byte
			if b.Y != nil {
				flags |= 1
			}
			if b.K != nil {
				flags |= 2
			}
			if b.V != nil {
				flags |= 4
			}
			if _, err := w.Write([]byte{flags}); err != nil {
				return err
			}
			for _, m := range []*tensor.Matrix{b.Y, b.K, b.V} {
				if m == nil {
					continue
				}
				if err := writeMatrix(w, m, scratch); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ReadTemplateCache parses a serialized template cache.
func ReadTemplateCache(r io.Reader) (*TemplateCache, error) { return ReadTemplateCacheWith(r, nil) }

// ReadTemplateCacheWith is ReadTemplateCache reading a derived form's K/V
// into pool's storage, held until the form's last hold ends (SlabPool).
func ReadTemplateCacheWith(r io.Reader, pool *SlabPool) (*TemplateCache, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("diffusion: cache header: %w", err)
	}
	if string(magic) != cacheMagic {
		return nil, fmt.Errorf("diffusion: bad cache magic %q", magic)
	}
	version, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if version != cacheVersion && version != derivedVersion {
		return nil, fmt.Errorf("diffusion: unsupported cache version %d", version)
	}
	tc := &TemplateCache{form: version == derivedVersion}
	if err := binary.Read(r, binary.LittleEndian, &tc.TemplateID); err != nil {
		return nil, err
	}
	condLen, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if condLen > maxCacheDim {
		return nil, fmt.Errorf("diffusion: implausible cond length %d", condLen)
	}
	// One staging buffer serves every matrix of the cache (hundreds of
	// them), so decoding allocates little beyond the matrices themselves.
	scratch := make([]byte, 1<<14)
	tc.Cond = make([]float32, condLen)
	if err := readFloats(r, tc.Cond, scratch); err != nil {
		return nil, err
	}
	if tc.Z0, err = readMatrix(r, scratch); err != nil {
		return nil, err
	}
	if tc.Noise, err = readMatrix(r, scratch); err != nil {
		return nil, err
	}
	if tc.Steps, err = readSteps(r, scratch); err != nil {
		return nil, err
	}
	var uflag [1]byte
	if _, err := io.ReadFull(r, uflag[:]); err != nil {
		return nil, err
	}
	if uflag[0] == 1 {
		if tc.UncondSteps, err = readSteps(r, scratch); err != nil {
			return nil, err
		}
	} else if uflag[0] != 0 {
		return nil, fmt.Errorf("diffusion: bad uncond flag %d", uflag[0])
	}
	if tc.form {
		err := readDerivedForm(r, tc, pool, scratch)
		if err != nil {
			pool.put(tc.slabs)
			return nil, err
		}
		if pool != nil {
			tc.pool = pool
			tc.holds.Store(1)
		}
	}
	return tc, nil
}

// readDerivedForm reads a derived form's trajectory and derived K/V into tc,
// whose steps have been read, and checks every length and shape against
// them: the trajectory has a latent per step and one more, the derived K/V a
// step per step of each pass and a block per block, and every present block
// the keys and values of all L tokens, as wide as the conditioning.
func readDerivedForm(r io.Reader, tc *TemplateCache, pool *SlabPool, scratch []byte) error {
	var y int64 // the Y the template held: a tokens × hidden output per block
	for _, steps := range [][]*model.StepActivations{tc.Steps, tc.UncondSteps} {
		for _, st := range steps {
			if st == nil {
				return fmt.Errorf("diffusion: derived form lacks a step")
			}
			for _, b := range st.Blocks {
				if b.Y != nil || b.K != nil || b.V != nil {
					return fmt.Errorf("diffusion: derived form holds activations")
				}
			}
			y += int64(len(st.Blocks)) * int64(tc.Z0.R) * int64(len(tc.Cond)) * 4
		}
	}
	if err := binary.Read(r, binary.LittleEndian, &tc.ybytes); err != nil {
		return err
	}
	if tc.ybytes < y {
		return fmt.Errorf("diffusion: derived form of a %d-byte cache whose steps held %d bytes of Y", tc.ybytes, y)
	}
	n, err := readU32(r)
	if err != nil {
		return err
	}
	if int(n) != len(tc.Steps)+1 {
		return fmt.Errorf("diffusion: trajectory of %d latents for %d steps", n, len(tc.Steps))
	}
	tc.traj = make([]*tensor.Matrix, n)
	for i := range tc.traj {
		if tc.traj[i], err = readMatrix(r, scratch); err != nil {
			return err
		}
		if tc.traj[i].R != tc.Z0.R || tc.traj[i].C != tc.Z0.C {
			return fmt.Errorf("diffusion: trajectory latent %v, template latent %v", tc.traj[i], tc.Z0)
		}
	}
	d := &derivedKV{}
	if d.cond, err = readDerived(r, tc, tc.Steps, pool, &d.bytes, scratch); err != nil {
		return err
	}
	if d.uncond, err = readDerived(r, tc, tc.UncondSteps, pool, &d.bytes, scratch); err != nil {
		return err
	}
	tc.derived = d
	return nil
}

// readDerived reads one pass's derived K/V, a step per step of steps, each
// step's run read with one readFloats into one slab of pool's (appended to
// tc.slabs) and its blocks carved from it as model.Model.DeriveKV lays them
// out, adding the slabs' bytes to *bytes. A block is as many tokens as tc's
// latent by as wide as its conditioning.
func readDerived(r io.Reader, tc *TemplateCache, steps []*model.StepActivations, pool *SlabPool, bytes *int64, scratch []byte) ([]*model.DerivedStep, error) {
	tokens, hidden := tc.Z0.R, len(tc.Cond)
	n := tokens * hidden // floats of one block's K, and of its V
	count, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if int(count) != len(steps) {
		return nil, fmt.Errorf("diffusion: derived K/V for %d steps, template has %d", count, len(steps))
	}
	out := make([]*model.DerivedStep, count)
	for t := range out {
		blocks, err := readU32(r)
		if err != nil {
			return nil, err
		}
		floats, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if int(blocks) != len(steps[t].Blocks) {
			return nil, fmt.Errorf("diffusion: derived step of %d blocks, template step has %d", blocks, len(steps[t].Blocks))
		}
		if floats > maxCacheDim {
			return nil, fmt.Errorf("diffusion: implausible derived step of %d floats", floats)
		}
		slab := pool.get(int(floats))
		tc.slabs = append(tc.slabs, slab)
		*bytes += 4 * int64(floats)
		// Each present block takes the next 2·L·H floats of the slab, which
		// the blocks must use up exactly.
		st := &model.DerivedStep{Blocks: make([]model.DerivedBlock, blocks)}
		rest := slab
		for bi := range st.Blocks {
			var flag [1]byte
			if _, err := io.ReadFull(r, flag[:]); err != nil {
				return nil, err
			}
			if flag[0] == 0 {
				continue
			}
			if flag[0] != 1 {
				return nil, fmt.Errorf("diffusion: bad derived block flag %d", flag[0])
			}
			scale, err := readU32(r)
			if err != nil {
				return nil, err
			}
			if n == 0 || len(rest) < 2*n {
				return nil, fmt.Errorf("diffusion: derived step of %d floats, too few for its present blocks", floats)
			}
			kt, v := tensor.FromSlice(hidden, tokens, rest[:n:n]), tensor.FromSlice(tokens, hidden, rest[n:2*n:2*n])
			st.Blocks[bi] = model.DerivedBlock{K: tensor.PackedKeysOf(kt, math.Float32frombits(scale)), V: v}
			rest = rest[2*n:]
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("diffusion: derived step leaves %d of its %d floats to no block", len(rest), floats)
		}
		if err := readFloats(r, slab, scratch); err != nil {
			return nil, err
		}
		out[t] = st
	}
	return out, nil
}

func readSteps(r io.Reader, scratch []byte) ([]*model.StepActivations, error) {
	count, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if count > 4096 {
		return nil, fmt.Errorf("diffusion: implausible step count %d", count)
	}
	steps := make([]*model.StepActivations, count)
	for si := range steps {
		blocks, err := readU32(r)
		if err != nil {
			return nil, err
		}
		if blocks == 0 {
			continue
		}
		if blocks > 4096 {
			return nil, fmt.Errorf("diffusion: implausible block count %d", blocks)
		}
		st := &model.StepActivations{Blocks: make([]model.BlockActivations, blocks)}
		for bi := range st.Blocks {
			var flags [1]byte
			if _, err := io.ReadFull(r, flags[:]); err != nil {
				return nil, err
			}
			if flags[0]&^7 != 0 {
				return nil, fmt.Errorf("diffusion: bad block flags %#x", flags[0])
			}
			if flags[0]&1 != 0 {
				if st.Blocks[bi].Y, err = readMatrix(r, scratch); err != nil {
					return nil, err
				}
			}
			if flags[0]&2 != 0 {
				if st.Blocks[bi].K, err = readMatrix(r, scratch); err != nil {
					return nil, err
				}
			}
			if flags[0]&4 != 0 {
				if st.Blocks[bi].V, err = readMatrix(r, scratch); err != nil {
					return nil, err
				}
			}
		}
		steps[si] = st
	}
	return steps, nil
}

func writeU32(w io.Writer, v uint32) error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	_, err := w.Write(buf[:])
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

// writeMatrix encodes one matrix: its shape, then its payload (writeFloats).
func writeMatrix(w io.Writer, m *tensor.Matrix, scratch []byte) error {
	if m == nil {
		return fmt.Errorf("diffusion: nil matrix in cache")
	}
	if err := writeU32(w, uint32(m.R)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(m.C)); err != nil {
		return err
	}
	return writeFloats(w, m.Data, scratch)
}

// writeFloats encodes data with one write straight from its storage where
// that is the payload's byte order already (tensor.LEBytes), staged through
// scratch (any positive multiple of 4 bytes long) and converted float by
// float elsewhere.
func writeFloats(w io.Writer, data []float32, scratch []byte) error {
	if payload := tensor.LEBytes(data); payload != nil {
		_, err := w.Write(payload)
		return err
	}
	for len(data) > 0 {
		n := min(len(data), len(scratch)/4)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(scratch[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(scratch[:4*n]); err != nil {
			return err
		}
		data = data[n:]
	}
	return nil
}

// readMatrix decodes one matrix, staging its payload through scratch where
// it has to be converted.
func readMatrix(r io.Reader, scratch []byte) (*tensor.Matrix, error) {
	rows, err := readU32(r)
	if err != nil {
		return nil, err
	}
	cols, err := readU32(r)
	if err != nil {
		return nil, err
	}
	if rows == 0 || cols == 0 || rows > maxCacheDim || cols > maxCacheDim ||
		uint64(rows)*uint64(cols) > maxCacheDim {
		return nil, fmt.Errorf("diffusion: implausible matrix %d×%d", rows, cols)
	}
	m := tensor.New(int(rows), int(cols))
	if err := readFloats(r, m.Data, scratch); err != nil {
		return nil, err
	}
	return m, nil
}

// readFloats fills data from its encoding: with one read straight into its
// storage where that is the payload's byte order already (tensor.LEBytes),
// staged through scratch and converted float by float elsewhere.
func readFloats(r io.Reader, data []float32, scratch []byte) error {
	if payload := tensor.LEBytes(data); payload != nil {
		_, err := io.ReadFull(r, payload)
		return err
	}
	for len(data) > 0 {
		n := min(len(data), len(scratch)/4)
		if _, err := io.ReadFull(r, scratch[:4*n]); err != nil {
			return err
		}
		for i := range data[:n] {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(scratch[4*i:]))
		}
		data = data[n:]
	}
	return nil
}
