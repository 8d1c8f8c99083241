package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles a tail may be reported at, highest
// first. The set is coarse on purpose: a closed-loop run's sample count
// drifts a little from run to run, and a fine ladder would make the reported
// percentile — and with it the value — jump between runs.
var tailCandidates = []float64{0.999, 0.99, 0.9}

// minBeyondTail is how many samples must lie above a tail percentile for it
// to be reported.
const minBeyondTail = 10

// rank is the 1-based nearest-rank index of the p-quantile among n samples:
// ceil(p·n), clamped to [1, n]. The epsilon keeps products such as
// 0.99·1000 = 989.9999… from rounding up past the exact rank.
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile is a nearest-rank quantile of its samples, with the sample count
// it rests on and the percentile it was taken at.
type quantile struct {
	Value float64 // in the samples' unit; NaN when N == 0
	P     float64 // the percentile, in (0, 1]
	N     int
}

func pctLabel(p float64) string {
	return fmt.Sprintf("%g", math.Round(p*1000)/10)
}

// nearestRank returns the p-quantile of sorted: the smallest sample with at
// least ceil(p·n) samples at or below it.
func nearestRank(sorted []float64, p float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{Value: math.NaN(), P: p}
	}
	return quantile{Value: sorted[rank(p, n)-1], P: p, N: n}
}

// tail returns the highest candidate percentile with at least minBeyondTail
// samples above its rank. With too few samples for any candidate it falls
// back to the median, so a tail is never reported from fewer points than it
// claims.
func tail(sorted []float64) quantile {
	n := len(sorted)
	for _, p := range tailCandidates {
		if n-rank(p, n) >= minBeyondTail {
			return nearestRank(sorted, p)
		}
	}
	return nearestRank(sorted, 0.5)
}

// series collects latency samples in milliseconds.
type series []float64

func (s *series) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

func (s series) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func (s series) p50() quantile  { return nearestRank(s.sorted(), 0.5) }
func (s series) tail() quantile { return tail(s.sorted()) }

// median of float values (used to summarise repeated set-up times).
func median(xs []float64) float64 {
	return nearestRank(series(xs).sorted(), 0.5).Value
}
