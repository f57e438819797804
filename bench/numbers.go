package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile interpolates linearly between the closest ranks, so the
// 50th percentile of an even-length sample is the mean of its middle
// pair.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func lowerQuartile(xs []float64) float64 { return percentile(xs, 25) }

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so spreads read the same as in the acceptance
// rules this benchmark is held to.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a counter the workload never bumps).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// durHist is a log-linear histogram of nanosecond durations: 16
// sub-buckets per power of two bound the quantile error to about 3%
// while a million observations cost a fixed 8 KiB.
type durHist struct {
	counts [64 * 16]uint64
	n      uint64
}

func (h *durHist) add(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
}

func histBucket(v uint64) int {
	if v < 16 {
		return int(v)
	}
	e := bits.Len64(v) - 5
	return e*16 + int(v>>uint(e))
}

// histMid is the midpoint of bucket b's value range.
func histMid(b int) float64 {
	if b < 32 {
		return float64(b)
	}
	e := b/16 - 1
	lo := uint64(16+b%16) << uint(e)
	return float64(lo) + float64(uint64(1)<<uint(e))/2
}

// quantile returns the midpoint of the bucket holding the q-th
// quantile (0 < q < 1).
func (h *durHist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(q * float64(h.n))
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen > rank {
			return histMid(b)
		}
	}
	return histMid(len(h.counts) - 1)
}
