package tensor

import "math"

// Float32 element-wise math for the step's token-wise passes: exp, the
// softmax weight pass built on it, GeLU, LayerNorm, the residual add and the
// scalar multiply.
//
// The Go functions in this file are the specification. The assembly
// kernels (asm_amd64.s: 8 lanes at the avx2 level; exp, GeLU and LayerNorm
// on 16 at avx512) execute the same IEEE single-precision operations in
// the same order — separately rounded multiplies and adds, fused exactly
// where the specification calls fma32 — so a vector lane of either width
// and the scalar tail produce the same bits, and so do all three kernel
// levels.
// Consequences the tests pin:
//
//   - exp and GeLU are position-independent: a value's result does not
//     depend on its index in the slice, the slice length, or the
//     parallelism setting;
//   - reductions (softmax denominator, LayerNorm mean/variance) use a
//     fixed order that depends only on the row length: eight lane
//     accumulators over the length's multiple-of-8 prefix (a 16-lane
//     pass adds its low half to them, then its high half; LayerNorm's
//     16-lane kernel holds two rows' accumulators in one register), the
//     lane tree of reduce8, then the tail in ascending order.
//
// Every explicit float32(...) conversion below forbids the compiler from
// fusing the enclosed product into a following add (Go spec, "Floating-
// point operators"), which is what keeps architectures with implicit FMA
// contraction on the same bits.

const (
	// expLo is ln(2⁻¹²⁶): below it exp's result would be denormal and is
	// flushed to 0, so masked (-Inf) softmax scores weigh exactly nothing.
	expLo = -87.33654475
	// expHi caps the argument so the 2ⁿ scale stays finite (n ≤ 127); exp
	// saturates at e^expHi ≈ 2.4e38 instead of overflowing to +Inf. The
	// step never gets there: softmax arguments are ≤ 0.
	expHi = 88.3762626647949

	expLog2e = 1.44269504088896341
	// ln 2 split so that n·expLn2Hi is exact for |n| ≤ 2¹⁵.
	expLn2Hi = 0.693359375
	expLn2Lo = -2.12194440e-4
	// expMagic is 1.5·2²³: adding it to |v| < 2²² leaves round-to-nearest-
	// even(v) in the low mantissa bits.
	expMagic = 12582912.0

	// Cephes expf minimax coefficients for (e^r − 1 − r)/r² on |r| ≤ ln2/2.
	expP0 = 1.9875691500e-4
	expP1 = 1.3981999507e-3
	expP2 = 8.3334519073e-3
	expP3 = 4.1665795894e-2
	expP4 = 1.6666665459e-1
	expP5 = 5.0000001201e-1

	geluC     = 0.044715
	geluNeg2K = -2 * 0.7978845608028654 // −2·√(2/π)
	geluKC    = geluNeg2K * geluC       // the x³ coefficient of −2u
	// geluTiny is 2⁻³⁰: below it the sigmoid factor rounds to exactly 1/2.
	geluTiny = 1.0 / (1 << 30)
)

// fma32 returns x·y + z rounded once to float32, as VFMADD231SS computes it.
// The product of two float32s is exact in float64; TwoSum gives the error of
// the float64 sum, and rounding that sum to odd before the conversion lets
// float32() round the exact value. (float32(math.FMA(x, y, z)) rounds twice:
// the float64 result can land on a float32 midpoint the exact value is not
// on, and float32() then breaks the tie to even.) A NaN or infinite operand
// takes the float64 sum as it is, except that a NaN z is passed on even
// where x·y is the NaN of 0·∞, as the instruction does.
func fma32(x, y, z float32) float32 {
	p := float64(float64(x) * float64(y)) // exact; the conversion keeps it out of an FMA
	c := float64(z)
	s := p + c
	if math.IsInf(s, 0) || s != s {
		if z != z {
			s = c
		}
		return float32(s)
	}
	v := s - p
	e := (p - (s - v)) + (c - v) // s + e = p + c exactly
	if b := math.Float64bits(s); e != 0 && b&1 == 0 {
		// Round to odd: s is the even neighbour of p + c, and e ≠ 0 makes
		// s nonzero; take the neighbour on e's side.
		if (e > 0) == (s > 0) {
			b++
		} else {
			b--
		}
		s = math.Float64frombits(b)
	}
	return float32(s)
}

// expf returns e^x: range reduction x = n·ln2 + r, a degree-5 polynomial
// in r, and an exponent-field multiply by 2ⁿ. Max error 1 ulp against
// float32(math.Exp(float64(x))) on [expLo, expHi]; 0 below expLo (so
// -Inf → 0); a NaN comes back quieted, sign and payload kept, which is
// what a vector lane makes of it. It is returned before the steps below:
// there −n (x with its sign flipped) meets x in one float64 add, and which
// of two NaNs an add passes on is the Go compiler's choice.
func expf(x float32) float32 {
	if x != x {
		return math.Float32frombits(math.Float32bits(x) | 1<<22)
	}
	if x < expLo {
		return 0
	}
	if x > expHi {
		x = expHi
	}
	t := fma32(x, expLog2e, expMagic)
	n := t - expMagic
	r := fma32(-n, expLn2Hi, x)
	r = fma32(-n, expLn2Lo, r)
	p := fma32(expP0, r, expP1)
	p = fma32(p, r, expP2)
	p = fma32(p, r, expP3)
	p = fma32(p, r, expP4)
	p = fma32(p, r, expP5)
	p = fma32(p, float32(r*r), r) + 1
	// The low bits of t hold n (two's complement); move them into the
	// exponent field and add the bias.
	scale := math.Float32frombits(math.Float32bits(t)<<23 + 127<<23)
	return p * scale
}

// geluf is the tanh-approximation GeLU with the tanh folded into one exp:
// 0.5·x·(1 + tanh(u)) = x / (1 + e^(−2u)), u = √(2/π)·(x + 0.044715·x³),
// with −2u evaluated as (K·C·x² + K)·x, K = −2√(2/π). For |x| < geluTiny
// the factor is exactly 1/2 in float32, and u is taken as 0 there so that
// x² and the argument never go denormal — a microcoded slow path that would
// cost a vector of tiny activations some hundred cycles per operation.
func geluf(x float32) float32 {
	xs := x
	if float32(math.Abs(float64(x))) < geluTiny {
		xs = 0
	}
	return x / (1 + expf(float32(fma32(geluKC, float32(xs*xs), geluNeg2K)*xs)))
}

// reduce8 sums eight lane accumulators in the order the AVX2 kernels'
// horizontal reduction uses (fold the high half onto the low, then two
// pairwise adds).
func reduce8(a *[8]float32) float32 {
	return ((a[0] + a[4]) + (a[1] + a[5])) + ((a[2] + a[6]) + (a[3] + a[7]))
}

// Exp replaces every element of x with e^x (see expf for range and
// accuracy).
func Exp(x []float32) { expShiftSum(x, 0) }

// expShiftSum replaces every x[i] with e^(x[i]−shift) and returns their
// sum: the softmax weight pass.
func expShiftSum(x []float32, shift float32) float32 {
	n8 := len(x) &^ 7
	var sum float32
	switch {
	case n8 >= 16 && level >= levelAVX512:
		sum = expShiftSumAVX16(&x[0], n8, shift)
	case n8 > 0 && level >= levelAVX2:
		sum = expShiftSumAVX8(&x[0], n8, shift)
	default:
		var acc [8]float32
		for i := 0; i < n8; i += 8 {
			v := x[i : i+8 : i+8]
			for l := range acc {
				v[l] = expf(v[l] - shift)
				acc[l] += v[l]
			}
		}
		sum = reduce8(&acc)
	}
	for i := n8; i < len(x); i++ {
		x[i] = expf(x[i] - shift)
		sum += x[i]
	}
	return sum
}

// softmaxWeights is the softmax weight pass over rows rows of n ≥ 1 scores,
// row k at s[k*lds:], against running maxima m: m[k] becomes the larger of
// m[k] and the row's largest score, the row is replaced by its weights
// exp(s − m[k]) and sum[k] receives their sum. A row whose m[k] is -Inf
// (every score so far masked out) becomes zeros with sum 0, not
// exp(-Inf − -Inf) = NaN. Each row is exactly maxOf followed by expShiftSum
// (softmaxWeightsRows); the vector kernels take every row's max first and
// then the rows' exp passes back to back in one call, so that one row's exp
// chains run beside the next row's instead of waiting out a call and a max,
// and the constants are loaded once.
func softmaxWeights(s []float32, lds, n, rows int, m, sum []float32) {
	_, _ = m[rows-1], sum[rows-1]
	_ = s[(rows-1)*lds+n-1]
	switch {
	case level >= levelAVX512:
		softmaxWeightsAVX16(&s[0], lds, n, rows, &m[0], &sum[0])
	case level >= levelAVX2:
		softmaxWeightsAVX8(&s[0], lds, n, rows, &m[0], &sum[0])
	default:
		softmaxWeightsRows(s, lds, n, rows, m, sum)
	}
}

// softmaxWeightsRows is the specification of softmaxWeights, one row at a
// time.
func softmaxWeightsRows(s []float32, lds, n, rows int, m, sum []float32) {
	for k := 0; k < rows; k++ {
		row := s[k*lds : k*lds+n]
		if t := maxOf(row); t > m[k] {
			m[k] = t
		}
		if math.IsInf(float64(m[k]), -1) {
			clear(row)
			sum[k] = 0
			continue
		}
		sum[k] = expShiftSum(row, m[k])
	}
}

// scaleVec multiplies every element of x by c: one rounded multiply each,
// the same bits from a vector lane, the scalar tail and the portable build.
func scaleVec(x []float32, c float32) {
	n8 := 0
	if level >= levelAVX2 && len(x) >= 8 {
		n8 = len(x) &^ 7
		scaleAVX8(&x[0], n8, c)
	}
	for i := n8; i < len(x); i++ {
		x[i] *= c
	}
}

// maxOf returns the largest element of x, ignoring NaNs; -Inf for an
// empty slice. Max is exact, so evaluation order is immaterial.
func maxOf(x []float32) float32 {
	m := float32(math.Inf(-1))
	n8 := 0
	if level >= levelAVX2 && len(x) >= 8 {
		n8 = len(x) &^ 7
		m = maxAVX8(&x[0], n8)
	}
	for _, v := range x[n8:] {
		if v > m {
			m = v
		}
	}
	return m
}

// geluSlice applies geluf to every element of x in place.
func geluSlice(x []float32) {
	n8 := 0
	if level >= levelAVX2 {
		n8 = len(x) &^ 7
	}
	switch {
	case n8 >= 16 && level >= levelAVX512:
		geluAVX16(&x[0], n8)
	case n8 > 0:
		geluAVX8(&x[0], n8)
	}
	for i := n8; i < len(x); i++ {
		x[i] = geluf(x[i])
	}
}

// AddVec writes a[i] + b[i] into dst[i]; a and b must be at least as long as
// dst, which may be either of them. One correctly rounded add per element:
// the same bits from a vector lane, the scalar tail and the portable build.
func AddVec(dst, a, b []float32) {
	n := len(dst)
	a, b = a[:n], b[:n]
	n8 := 0
	if level >= levelAVX2 && n >= 8 {
		n8 = n &^ 7
		addAVX8(&dst[0], &a[0], &b[0], n8)
	}
	for i := n8; i < n; i++ {
		dst[i] = a[i] + b[i]
	}
}

// lnGroup is how many rows one layerNormRowsAVX8 call normalises;
// layerNormRowsAVX16 takes twice as many.
const lnGroup = 4

// layerNormRows is layerNormRow over rows rows of n ≥ 1 floats, row k at
// src[k*n:] and dst[k*n:] (dst may be src). Where n is a multiple of 8 the
// level's vector kernel takes the rows a group at a time, their reduction
// chains side by side; each row still gets layerNormRow's bits.
func layerNormRows(dst, src, gamma, beta []float32, n, rows int, eps float32) {
	if rows == 0 {
		return
	}
	_, _ = dst[rows*n-1], src[rows*n-1]
	_, _ = gamma[n-1], beta[n-1]
	switch {
	case n%8 != 0:
	case level >= levelAVX512:
		for i := 0; i < rows; i += 2 * lnGroup {
			layerNormRowsAVX16(&dst[i*n], &src[i*n], &gamma[0], &beta[0], n, min(2*lnGroup, rows-i), eps)
		}
		return
	case level >= levelAVX2:
		for i := 0; i < rows; i += lnGroup {
			layerNormRowsAVX8(&dst[i*n], &src[i*n], &gamma[0], &beta[0], n, min(lnGroup, rows-i), eps)
		}
		return
	}
	for i := 0; i < rows; i++ {
		layerNormRow(dst[i*n:(i+1)*n], src[i*n:(i+1)*n], gamma, beta, eps)
	}
}

// layerNormRow writes LayerNorm(src)·gamma + beta into dst (which may be
// src): float32 mean and biased variance in the fixed reduction order
// described at the top of this file. It is the specification of
// layerNormRows.
func layerNormRow(dst, src, gamma, beta []float32, eps float32) {
	n := len(src)
	dst, gamma, beta = dst[:n], gamma[:n], beta[:n]
	n8 := n &^ 7
	var acc [8]float32
	for i := 0; i < n8; i += 8 {
		v := src[i : i+8 : i+8]
		for l := range acc {
			acc[l] += v[l]
		}
	}
	sum := reduce8(&acc)
	for _, v := range src[n8:] {
		sum += v
	}
	mean := sum / float32(n)
	acc = [8]float32{}
	for i := 0; i < n8; i += 8 {
		v := src[i : i+8 : i+8]
		for l := range acc {
			d := v[l] - mean
			acc[l] += float32(d * d)
		}
	}
	sum = reduce8(&acc)
	for _, v := range src[n8:] {
		d := v - mean
		sum += float32(d * d)
	}
	inv := 1 / float32(math.Sqrt(float64(sum/float32(n)+eps)))
	for j, v := range src {
		dst[j] = float32(float32((v-mean)*inv)*gamma[j]) + beta[j]
	}
}
