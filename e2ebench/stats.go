package main

import (
	"math"
	"slices"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a percentile with fewer samples above it is one or two
// outliers, not a tail.
const minTail = 10

// tailQ is the step-latency percentile every workload reports next to the
// median.
const tailQ = 0.90

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place. It returns 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples that lie above the nearest-rank
// q-quantile among n samples.
func beyond(n int, q float64) int { return n - rank(n, q) }

// minSamples is the smallest sample count whose q-quantile has at least
// minTail samples beyond it.
func minSamples(q float64) int {
	n := 1
	for beyond(n, q) < minTail {
		n++
	}
	return n
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// sliceMedian applies f to each consecutive slice of n samples of xs (a
// short tail is dropped) and returns the median of the results; with fewer
// than n samples it applies f to all of them. Bursts of host contention
// then move one slice's figure rather than the run's.
func sliceMedian(xs []float64, n int, f func([]float64) float64) float64 {
	var vals []float64
	for i := 0; i+n <= len(xs); i += n {
		vals = append(vals, f(slices.Clone(xs[i:i+n])))
	}
	if len(vals) == 0 {
		return f(slices.Clone(xs))
	}
	return median(vals)
}
