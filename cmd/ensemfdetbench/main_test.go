package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
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

// TestIngestResendsShedBatches drives one ingest worker against a server
// that sheds its first requests — three 429s, then a 503, all with
// "Retry-After: 0" — and acknowledges the rest. The shed batch must be
// resent byte-for-byte until acknowledged rather than skipped, so the
// acknowledged batches tile the sequence without a hole, and only they
// count toward edges sent and distinct users.
func TestIngestResendsShedBatches(t *testing.T) {
	const acks = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu     sync.Mutex
		bodies []string
		served int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		served++
		switch {
		case served <= 3:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		case served == 4:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if len(bodies) == acks {
			cancel() // end the run on this batch: it never gets an answer
			<-r.Context().Done()
			return
		}
		bodies = append(bodies, string(body))
	}))
	defer srv.Close()

	l := &ingestLoad{client: srv.Client(), url: srv.URL, batch: 4, users: 100, merchants: 7}
	done := make(chan struct{})
	go func() {
		l.work(ctx)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ingest worker did not finish")
	}

	if got := l.rec.shed.Load(); got != 3 {
		t.Errorf("shed = %d, want 3", got)
	}
	if got := l.rec.errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1 (the 503)", got)
	}
	if first := string(appendBatch(nil, 0, 4, 100, 7)); bodies[0] != first {
		t.Fatalf("first acknowledged body %s, want the shed batch %s resent", bodies[0], first)
	}
	if len(l.acked) != acks {
		t.Fatalf("acked %d batches, want %d", len(l.acked), acks)
	}
	for i, base := range l.acked {
		if base != int64(4*i) {
			t.Fatalf("acked bases %v, want 0, 4, 8, ... without a hole", l.acked)
		}
	}
	if got := coveredUsers(l.acked, l.batch, l.users); got != 4*acks {
		t.Errorf("distinct users = %d, want %d", got, 4*acks)
	}
}

// TestCoveredUsers pins the coverage arithmetic: the union of acknowledged
// sequence ranges modulo the user space, with holes left by unacknowledged
// batches, overlap after wrapping, and a batch wider than the space.
func TestCoveredUsers(t *testing.T) {
	for _, tc := range []struct {
		name               string
		bases              []int64
		batch, users, want int64
	}{
		{"none", nil, 4, 10, 0},
		{"contiguous", []int64{0, 4}, 4, 100, 8},
		{"hole", []int64{0, 8}, 4, 100, 8},
		{"unsorted", []int64{8, 0, 4}, 4, 100, 12},
		{"wraps", []int64{8}, 4, 10, 4},
		{"wrap overlap", []int64{8, 0}, 4, 10, 6},
		{"full cycle", []int64{0, 4, 8, 12}, 4, 10, 10},
		{"batch wider than users", []int64{0}, 16, 10, 10},
	} {
		if got := coveredUsers(tc.bases, tc.batch, tc.users); got != tc.want {
			t.Errorf("%s: coveredUsers(%v, %d, %d) = %d, want %d", tc.name, tc.bases, tc.batch, tc.users, got, tc.want)
		}
	}
}

// TestRetryAfter: an integer hint in seconds is honoured, anything else
// falls back to one second.
func TestRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"0":    0,
		"2":    2 * time.Second,
		"":     time.Second,
		"-1":   time.Second,
		"soon": time.Second,
	} {
		if got := retryAfter(h); got != want {
			t.Errorf("retryAfter(%q) = %v, want %v", h, got, want)
		}
	}
}
