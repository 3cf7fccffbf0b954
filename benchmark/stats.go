package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: with fewer, the figure is one slow request, not a property of
// the system.
const minTail = 10

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// It refuses — returns an error — when fewer than minTail samples lie
// beyond the percentile.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of (0, 100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if beyond := len(xs) - rank; beyond < minTail {
		return 0, fmt.Errorf("P%g of %d samples has %d beyond it, need %d", p, len(xs), beyond, minTail)
	}
	return sorted(xs)[rank-1], nil
}

// tail is the p-th percentile, or when that is refused the highest
// percentile that still has minTail samples beyond it (0 when there is
// none). It serves the ungated loadgen.* tails, which always come with
// their sample count.
func tail(xs []float64, p float64) float64 {
	if v, err := percentile(xs, p); err == nil {
		return v
	}
	if len(xs) <= minTail {
		return 0
	}
	return sorted(xs)[len(xs)-minTail-1]
}

// iqrSpread is the distance between the first and third quartile as a
// share of the median — the spread the regression bounds are sized by.
func iqrSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the PR driver computes.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var out [3]float64
	for i := 1; i <= 3; i++ {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		out[i-1] = s[j-1] + frac*(s[j]-s[j-1])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeOp returns the median seconds per call of fn over five batches, each
// sized to run for about two milliseconds. Used only for the op-level
// layer figures, outside the loaded passes.
func timeOp(fn func()) float64 {
	fn()
	n := 1
	for {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t) >= 2*time.Millisecond || n >= 1<<18 {
			break
		}
		n *= 2
	}
	batches := make([]float64, 5)
	for b := range batches {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = time.Since(t).Seconds() / float64(n)
	}
	return median(batches)
}
