package main

import (
	"math"
	"testing"
)

// seq returns the sorted samples 1, 2, ..., n.
func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestRankIsNearestRank(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want int
	}{
		{0.5, 1, 1},
		{0.5, 2, 1},
		{0.99, 2, 2},
		{0.5, 3, 2},
		{0.5, 4, 2},
		{0.9, 10, 9},
		{0.9, 100, 90},
		{0.99, 100, 99},
		{0.99, 1000, 990},
		{0.999, 1000, 999},
		{0.999, 10000, 9990},
		{1, 7, 7},
		{0, 7, 1},
	}
	for _, c := range cases {
		if got := rank(c.p, c.n); got != c.want {
			t.Errorf("rank(%g, %d) = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestNearestRankSmallSamples(t *testing.T) {
	if q := nearestRank(nil, 0.5); q.N != 0 || !math.IsNaN(q.Value) {
		t.Errorf("n=0: got %+v, want N=0 and NaN", q)
	}
	if q := nearestRank([]float64{7}, 0.99); q.Value != 7 || q.N != 1 {
		t.Errorf("n=1 p99: got %+v", q)
	}
	// The floor index int(p*(n-1)) returns the minimum for every p at n=2;
	// nearest rank must not.
	two := []float64{3, 9}
	if q := nearestRank(two, 0.5); q.Value != 3 {
		t.Errorf("n=2 p50 = %g, want 3", q.Value)
	}
	for _, p := range []float64{0.99, 0.999} {
		if q := nearestRank(two, p); q.Value != 9 {
			t.Errorf("n=2 p%g = %g, want 9", 100*p, q.Value)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		wantP float64
	}{
		{0, 0.5},
		{1, 0.5},
		{2, 0.5},
		{99, 0.5},
		{100, 0.9},
		{101, 0.9},
		{999, 0.9},
		{1000, 0.99},
		{1001, 0.99},
		{9999, 0.99},
		{10000, 0.999},
	}
	for _, c := range cases {
		q := tail(seq(c.n))
		if q.P != c.wantP || q.N != c.n {
			t.Errorf("n=%d: tail at p%g (n=%d), want p%g", c.n, 100*q.P, q.N, 100*c.wantP)
			continue
		}
		if c.n == 0 {
			continue
		}
		if beyond := c.n - int(q.Value); c.wantP != 0.5 && beyond < minBeyondTail {
			t.Errorf("n=%d: only %d samples beyond the p%g tail", c.n, beyond, 100*q.P)
		}
	}
	// At the boundaries exactly ten samples lie above the tail.
	for _, n := range []int{100, 1000, 10000} {
		if q := tail(seq(n)); n-int(q.Value) != minBeyondTail {
			t.Errorf("n=%d: tail %g leaves %d beyond, want %d", n, q.Value, n-int(q.Value), minBeyondTail)
		}
	}
}

func TestSeriesSortsACopy(t *testing.T) {
	s := series{5, 1, 3}
	if q := s.p50(); q.Value != 3 || q.N != 3 {
		t.Errorf("p50 = %+v, want 3 of n=3", q)
	}
	if s[0] != 5 {
		t.Errorf("quantile reordered the series: %v", s)
	}
	if m := median([]float64{0.4, 0.1, 0.3}); m != 0.3 {
		t.Errorf("median = %g, want 0.3", m)
	}
}
