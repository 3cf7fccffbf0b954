package img

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"unsafe"
)

// EncodePNG renders the image as an 8-bit RGB PNG (colour type 2), every
// channel quantised as uint8(v*255 + 0.5).
//
// The encoder is written for the images the server returns. Codec.Decode
// paints each latent token's patch one colour, so after PNG's Sub and Up
// row filters such an image is almost all runs of zero bytes, and runs are
// all it looks for: each scanline takes the None, Sub or Up filter with the
// least sum of absolute (signed) byte values, a row whose pixels equal the
// previous row's being an all-zero Up row without conversion, and the
// filtered scanlines go into one fixed-Huffman deflate block whose only
// matches are distance-1 runs, framed by zlib in a single IDAT chunk. Any
// image encodes in at most 9/8 of its filtered scanlines plus 72 bytes.
func EncodePNG(im *Image) ([]byte, error) {
	if im.H <= 0 || im.W <= 0 || len(im.Pix) != im.H*im.W*3 {
		return nil, fmt.Errorf("img: encode: invalid image %d×%d with %d channels", im.H, im.W, len(im.Pix))
	}
	if n := im.H * (1 + 3*im.W); n/8*9+72 > math.MaxInt32 {
		return nil, fmt.Errorf("img: encode: %d×%d image too large for one IDAT chunk", im.H, im.W)
	}
	b := pngPool.Get().(*pngBuffers)
	defer pngPool.Put(b)
	data := b.filter(im)
	out := append(b.out[:0], pngSignature...)
	out = binary.BigEndian.AppendUint32(out, 13)
	ihdr := len(out)
	out = append(out, "IHDR"...)
	out = binary.BigEndian.AppendUint32(out, uint32(im.W))
	out = binary.BigEndian.AppendUint32(out, uint32(im.H))
	out = append(out, 8, 2, 0, 0, 0) // bit depth, colour type RGB, deflate, adaptive filtering, no interlace
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[ihdr:]))

	idat := len(out)
	out = append(out, 0, 0, 0, 0, 'I', 'D', 'A', 'T', 0x78, 0x01) // length patched below; zlib header
	out = deflateRuns(out, data)
	binary.BigEndian.PutUint32(out[idat:], uint32(len(out)-idat-8))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out[idat+4:]))

	out = append(out, pngIEND...)
	b.out = out
	return bytes.Clone(out), nil
}

var (
	pngSignature = []byte("\x89PNG\r\n\x1a\n")
	pngIEND      = []byte("\x00\x00\x00\x00IEND\xae\x42\x60\x82")
)

const (
	filterNone = 0
	filterSub  = 1
	filterUp   = 2
)

// pngBuffers is one encode's scratch: the filtered scanlines, the quantised
// current and previous rows, and the output before EncodePNG copies it out.
type pngBuffers struct {
	data, cur, prev, out []byte
}

var pngPool = sync.Pool{New: func() any { return new(pngBuffers) }}

// filter quantises and filters every scanline of im into b.data, each row
// prefixed by its filter type byte, and returns it.
func (b *pngBuffers) filter(im *Image) []byte {
	stride := 3 * im.W
	b.data = grow(b.data, im.H*(1+stride))
	b.cur, b.prev = grow(b.cur, stride), grow(b.prev, stride)
	clear(b.prev) // Up and None coincide on the first row
	for y := 0; y < im.H; y++ {
		pix := im.Pix[y*stride : (y+1)*stride]
		dst := b.data[y*(1+stride) : (y+1)*(1+stride)]
		if y > 0 && sameBits(pix, im.Pix[(y-1)*stride:y*stride]) {
			dst[0] = filterUp
			clear(dst[1:])
			continue
		}
		cur, prev := b.cur, b.prev
		for i, v := range pix {
			cur[i] = uint8(v*255 + 0.5)
		}
		var none, sub, up int
		for i, c := range cur {
			none += abs8(c)
			up += abs8(c - prev[i])
			if i >= 3 {
				sub += abs8(c - cur[i-3])
			} else {
				sub += abs8(c)
			}
		}
		switch {
		case none <= sub && none <= up:
			dst[0] = filterNone
			copy(dst[1:], cur)
		case sub <= up:
			dst[0] = filterSub
			copy(dst[1:4], cur)
			for i := 3; i < stride; i++ {
				dst[1+i] = cur[i] - cur[i-3]
			}
		default:
			dst[0] = filterUp
			for i, c := range cur {
				dst[1+i] = c - prev[i]
			}
		}
		b.cur, b.prev = prev, cur
	}
	return b.data
}

// sameBits reports whether two rows hold the same float32 bit patterns, and
// so quantise to the same bytes.
func sameBits(a, b []float32) bool {
	return bytes.Equal(floatBytes(a), floatBytes(b))
}

func floatBytes(f []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(f))), 4*len(f))
}

// abs8 is the magnitude of a filtered byte read as signed.
func abs8(c byte) int {
	v := int(int8(c))
	return (v ^ v>>7) - v>>7
}

func grow(s []byte, n int) []byte {
	if cap(s) < n {
		return make([]byte, n)
	}
	return s[:n]
}

// deflateRuns appends data to out as one final fixed-Huffman deflate block
// (RFC 1951 §3.2.6), each byte a literal unless it repeats the one before, a
// repeat of three or more bytes a length with distance 1, and then data's
// Adler-32 to close the zlib stream.
func deflateRuns(out, data []byte) []byte {
	w := bitWriter{out: out}
	sum := adler{s1: 1}
	w.write(0b011, 3) // BFINAL, BTYPE 01
	for i := 0; i < len(data); {
		c := data[i]
		w.write(uint64(fixedLit[c]), uint(fixedLitLen[c]))
		sum.add(c, 1)
		i++
		j := i
		for rep := uint64(c) * 0x0101010101010101; j+8 <= len(data) && binary.LittleEndian.Uint64(data[j:]) == rep; {
			j += 8
		}
		for j < len(data) && data[j] == c {
			j++
		}
		for j-i >= 3 {
			l := min(j-i, 258)
			w.write(uint64(fixedMatch[l]), uint(fixedMatchLen[l]))
			sum.add(c, l)
			i += l
		}
		for ; i < j; i++ {
			w.write(uint64(fixedLit[c]), uint(fixedLitLen[c]))
			sum.add(c, 1)
		}
	}
	w.write(uint64(fixedLit[256]), uint(fixedLitLen[256])) // end of block
	return binary.BigEndian.AppendUint32(w.flush(), sum.s2<<16|sum.s1)
}

// adler is a running Adler-32 (RFC 1950 §8), fed a run at a time.
type adler struct{ s1, s2 uint32 }

// add appends n ≤ 258 copies of c: s2 gains s1 at each of them, plus c,
// 2c, ..., nc.
func (a *adler) add(c byte, n int) {
	const mod = 65521
	a.s2 = (a.s2 + uint32(n)*a.s1 + uint32(c)*uint32(n*(n+1)/2)) % mod
	a.s1 = (a.s1 + uint32(c)*uint32(n)) % mod
}

// The fixed Huffman codes, bit-reversed into deflate's LSB-first order:
// fixedLit[s] for literal/length symbol s, and fixedMatch[l] for a whole
// match of length l at distance 1 (length symbol, extra bits, distance
// code 0).
var (
	fixedLit      [257]uint16
	fixedLitLen   [257]uint8
	fixedMatch    [259]uint32
	fixedMatchLen [259]uint8
)

func init() {
	code := func(s int) (uint32, uint8) {
		switch {
		case s < 144:
			return reverse(0x30+s, 8), 8
		case s < 256:
			return reverse(0x190+s-144, 9), 9
		case s < 280:
			return reverse(s-256, 7), 7
		default:
			return reverse(0xc0+s-280, 8), 8
		}
	}
	for s := range fixedLit {
		c, n := code(s)
		fixedLit[s], fixedLitLen[s] = uint16(c), n
	}
	// Length symbols 257..284 cover base..base+2^extra-1; 285 is 258 alone.
	s, base, extra := 257, 3, 0
	for l := 3; l <= 258; l++ {
		if l == 258 {
			s, base, extra = 285, 258, 0
		} else if l >= base+1<<extra {
			s, base = s+1, base+1<<extra
			if s >= 265 {
				extra = (s - 261) / 4
			}
		}
		c, n := code(s)
		fixedMatch[l] = c | uint32(l-base)<<n // distance code 0 is five zero bits
		fixedMatchLen[l] = n + uint8(extra) + 5
	}
}

func reverse(c, n int) uint32 {
	var r uint32
	for i := 0; i < n; i++ {
		r = r<<1 | uint32(c>>i&1)
	}
	return r
}

// bitWriter packs deflate's LSB-first bit stream onto a byte slice.
type bitWriter struct {
	out  []byte
	bits uint64
	n    uint
}

// write appends the low n ≤ 32 bits of v.
func (w *bitWriter) write(v uint64, n uint) {
	w.bits |= v << w.n
	w.n += n
	if w.n >= 32 {
		w.out = binary.LittleEndian.AppendUint32(w.out, uint32(w.bits))
		w.bits >>= 32
		w.n -= 32
	}
}

// flush pads the last byte with zeros and returns the output.
func (w *bitWriter) flush() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.out = append(w.out, byte(w.bits))
		w.bits >>= 8
	}
	return w.out
}
