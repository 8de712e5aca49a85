package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (mean of the two middles for even n),
// 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same
// "exclusive" method as Python's statistics.quantiles(xs, n=4), which is
// what the driver uses to judge a metric's spread. With fewer than two
// samples both are the single value (no spread is known).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 { // quantile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: with fewer, the percentile is an order statistic of the few
// slowest operations and does not repeat from run to run.
const minBeyond = 10

// supportedPercentile lowers p to the highest percentile of n samples that
// still has minBeyond samples beyond it. Below 2·minBeyond samples the
// median is the only percentile supported.
func supportedPercentile(n int, p float64) float64 {
	if n < 2*minBeyond {
		return 0.5
	}
	if limit := 1 - float64(minBeyond)/float64(n); p > limit {
		return limit
	}
	return p
}

// percentileOf returns the p-th percentile (nearest rank) of n attempted
// operations of which only the completed ones have a latency. Failed
// operations rank slowest — a failed job misses any latency limit — so a
// rank that lands among them reports the slowest completed latency; the run
// is marked incorrect by its failure count anyway. p is first lowered to
// what n supports; the percentile actually used is returned beside the value.
func percentileOf(completed []float64, attempted int, p float64) (value, used float64) {
	if len(completed) == 0 {
		return 0, p
	}
	if attempted < len(completed) {
		attempted = len(completed)
	}
	used = supportedPercentile(attempted, p)
	if used == 0.5 && attempted == len(completed) {
		return median(completed), used
	}
	s := sorted(completed)
	rank := int(math.Ceil(used * float64(attempted)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], used
}
