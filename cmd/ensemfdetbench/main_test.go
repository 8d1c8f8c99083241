package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestSummarizeNearestRank pins the soak report's quantiles on latencies of
// 1..n ms, donated in shuffled order: nearest rank (sample ceil(p·n)), so a
// two-sample p99 is the larger sample rather than the minimum, and p999 is
// null (NaN) below 1000 samples.
func TestSummarizeNearestRank(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		n                   int
		p50, p99, p999, max float64
	}{
		{0, nan, nan, nan, nan},
		{1, 1, 1, nan, 1},
		{2, 1, 2, nan, 2},
		{100, 50, 99, nan, 100},
		{1000, 500, 990, 999, 1000},
	} {
		lat := make([]time.Duration, tc.n)
		for i := range lat {
			lat[i] = time.Duration(i+1) * time.Millisecond
		}
		rand.New(rand.NewSource(int64(tc.n))).Shuffle(len(lat), func(i, j int) { lat[i], lat[j] = lat[j], lat[i] })
		var r recorder
		r.donate(lat)
		got := r.summarize()
		if got.Samples != tc.n {
			t.Errorf("n=%d: samples = %d", tc.n, got.Samples)
		}
		for _, q := range []struct {
			name      string
			got, want float64
		}{
			{"p50", float64(got.P50Ms), tc.p50},
			{"p99", float64(got.P99Ms), tc.p99},
			{"p999", float64(got.P999Ms), tc.p999},
			{"max", float64(got.MaxMs), tc.max},
		} {
			if q.got != q.want && !(math.IsNaN(q.got) && math.IsNaN(q.want)) {
				t.Errorf("n=%d: %s = %v ms, want %v", tc.n, q.name, q.got, q.want)
			}
		}
		js, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if withheld := strings.Contains(string(js), `"p999_ms":null`); withheld != (tc.n < minP999Samples) {
			t.Errorf("n=%d: p999 withheld = %v in %s", tc.n, withheld, js)
		}
	}
}
