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
// A matrix is rows u32, cols u32, then rows·cols f32.
const (
	cacheMagic   = "FPTC"
	cacheVersion = 2
	maxCacheDim  = 1 << 24
)

// Serialize writes the template cache to w.
func (tc *TemplateCache) Serialize(w io.Writer) error {
	if _, err := w.Write([]byte(cacheMagic)); err != nil {
		return err
	}
	if err := writeU32(w, cacheVersion); err != nil {
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
	if tc.UncondSteps == nil {
		_, err := w.Write([]byte{0})
		return err
	}
	if _, err := w.Write([]byte{1}); err != nil {
		return err
	}
	return writeSteps(w, tc.UncondSteps, scratch)
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
func ReadTemplateCache(r io.Reader) (*TemplateCache, error) {
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
	if version != cacheVersion {
		return nil, fmt.Errorf("diffusion: unsupported cache version %d", version)
	}
	tc := &TemplateCache{}
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
	return tc, nil
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

// writeMatrix encodes one matrix: its payload with one write straight from
// its storage where that is the payload's byte order already
// (tensor.LEBytes), staged through scratch (any positive multiple of 4 bytes
// long) and converted float by float elsewhere.
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
	if payload := tensor.LEBytes(m.Data); payload != nil {
		_, err := w.Write(payload)
		return err
	}
	for data := m.Data; len(data) > 0; {
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
