package main

import (
	"fmt"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail percentile.
const minBeyond = 10

// tailStat is a tail percentile together with the evidence behind it.
type tailStat struct {
	Value  float64
	Pct    float64 // the nearest-rank percentile Value sits at
	N      int     // samples
	Beyond int     // samples strictly above Pct's rank
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.4g of %d samples, %d beyond", t.Pct, t.N, t.Beyond)
}

// tail returns the highest nearest-rank percentile of xs that still has
// minBeyond samples beyond it: with n samples that is rank n-minBeyond, the
// percentile 100(n-minBeyond)/n. Below 2*minBeyond samples that rank would
// sit at or under the median, so the maximum is reported instead, with
// Beyond = 0 saying that no percentile was supported.
func tail(xs []float64) tailStat {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tailStat{}
	}
	if n < 2*minBeyond {
		return tailStat{Value: s[n-1], Pct: 100, N: n}
	}
	rank := n - minBeyond
	return tailStat{Value: s[rank-1], Pct: 100 * float64(rank) / float64(n), N: n, Beyond: minBeyond}
}

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
