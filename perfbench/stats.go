package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile. With fewer, the percentile is one or two unlucky samples
// and moves from run to run by chance alone.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs. It
// refuses when fewer than minTail samples lie beyond the rank, so p90
// needs at least 100 samples and p99 at least 1000. The median (p=0.5)
// is exempt from the rule only through median.
func percentile(xs []float64, p float64) (float64, error) {
	if !(p > 0 && p < 1) {
		return 0, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, beyond, minTail)
	}
	s := sortedCopy(xs)
	return s[rank-1], nil
}

// fmtPct formats a percentile of a latency sample in ms, or "refused"
// when the sample is too small for it.
func fmtPct(xs []float64, p float64) string {
	v := median(xs)
	if p != 0.5 {
		var err error
		if v, err = percentile(xs, p); err != nil {
			return "refused"
		}
	}
	return fmt.Sprintf("%.3fms", v)
}

// median returns the middle value (mean of the two middle values for an
// even count); NaN for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean; NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(xs) / float64(len(xs))
}

// sum adds the values.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOf returns the largest value; 0 for no samples.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
