package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of xs:
// the smallest sample with at least q% of the samples at or below it.
// xs must be sorted ascending; an empty slice yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[rank(len(xs), q)-1]
}

// rank is the 1-based nearest rank of the q-th percentile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder lists the percentiles a tail metric may report, highest first.
// p99 is the cap: a longer run reports p99, not a rarer quantile, so the
// metric keeps one meaning as runs grow.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie strictly above a
// reported tail percentile for it to be supported by the sample.
const minBeyond = 10

// tailPercentile returns the highest percentile on tailLadder that leaves
// at least minBeyond of n samples beyond its nearest rank, and false when
// even the median is unsupported.
func tailPercentile(n int) (float64, bool) {
	for _, q := range tailLadder {
		if n-rank(n, q) >= minBeyond {
			return q, true
		}
	}
	return 0, false
}

// median returns the median of xs (mean of the middle two for even
// lengths), leaving xs unmodified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
