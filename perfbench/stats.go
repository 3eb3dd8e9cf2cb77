package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported
// at, highest first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to say anything about the tail.
const minBeyond = 10

// rank returns the 1-based nearest-rank index of percentile p among n
// sorted samples. The tolerance keeps p*n/100 that is whole in exact
// arithmetic from rounding up a rank.
func rank(n int, p float64) int {
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond of n samples beyond it, and false when even the
// median has fewer.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (0 for none).
// It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the middle of xs, averaging the two middle samples of
// an even count (0 for none). It sorts xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
