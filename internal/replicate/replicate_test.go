package replicate

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// testPrimary is a durable primary under test: graph, store, and the
// replication endpoints on an httptest server.
type testPrimary struct {
	g   *stream.Graph
	st  *persist.Store
	p   *Primary
	srv *httptest.Server
}

func newTestPrimary(t *testing.T, opts persist.Options) *testPrimary {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	st, err := persist.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	g := stream.NewSharded(4)
	if _, err := st.Recover(g); err != nil {
		t.Fatal(err)
	}
	g.SetJournal(st)
	st.SetSource(g)
	p := NewPrimary(PrimaryConfig{Store: st, Version: g.Version, Logf: t.Logf})
	srv := httptest.NewServer(p.Handler())
	t.Cleanup(func() { srv.Close(); st.Close() })
	return &testPrimary{g: g, st: st, p: p, srv: srv}
}

func (tp *testPrimary) append(t *testing.T, edges ...bipartite.Edge) {
	t.Helper()
	if res := tp.g.Append(edges); res.Err != nil {
		t.Fatal(res.Err)
	}
}

func batches(seed, n, per int) [][]bipartite.Edge {
	out := make([][]bipartite.Edge, n)
	x := uint32(seed)
	for i := range out {
		b := make([]bipartite.Edge, per)
		for j := range b {
			x = x*1664525 + 1013904223 // LCG: deterministic, no shared rand
			b[j] = bipartite.Edge{U: x % 97, V: (x >> 8) % 83}
		}
		out[i] = b
	}
	return out
}

func csr(t *testing.T, g *bipartite.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := bipartite.WriteCSR(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func runVotes(t *testing.T, g *bipartite.Graph) core.Votes {
	t.Helper()
	out, err := core.Run(g, core.Config{NumSamples: 8, SampleRatio: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return out.Votes
}

// catchUp drives tailOnce until the follower reports no lag, bounded so a
// broken tail fails the test instead of hanging it.
func catchUp(t *testing.T, f *Follower) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 200; i++ {
		status, err := f.tailOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if status == http.StatusGone {
			if err := f.resync(ctx); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if behind, _, known := f.Lag(); known && behind == 0 {
			return
		}
	}
	t.Fatal("follower failed to catch up in 200 tail rounds")
}

// assertIdentical pins the acceptance criterion: same version, byte-identical
// CSR, byte-identical votes.
func assertIdentical(t *testing.T, primary, follower *stream.Graph) {
	t.Helper()
	pv, fv := primary.Version(), follower.Version()
	if pv != fv {
		t.Fatalf("follower at version %d, primary at %d", fv, pv)
	}
	ps, _ := primary.Snapshot()
	fs, _ := follower.Snapshot()
	if !bytes.Equal(csr(t, ps), csr(t, fs)) {
		t.Fatalf("CSR diverged at version %d", pv)
	}
	pvotes, fvotes := runVotes(t, ps), runVotes(t, fs)
	if !reflect.DeepEqual(pvotes, fvotes) {
		t.Fatalf("votes diverged at version %d", pv)
	}
}

// TestMemoryFollowerBootstrapAndTail attaches a diskless follower to a
// primary that already snapshotted and kept ingesting: the follower seeds
// from the snapshot body, tails the rest, and serves byte-identical votes at
// the primary's version.
func TestMemoryFollowerBootstrapAndTail(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	bs := batches(1, 10, 25)
	for _, b := range bs[:5] {
		tp.append(t, b...)
	}
	if err := tp.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, b := range bs[5:] {
		tp.append(t, b...)
	}

	f, err := NewFollower(FollowerConfig{Primary: tp.srv.URL, Graph: stream.New(), WaitMS: 10, MaxLag: 8, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f.cfg.Graph.Version() == 0 {
		t.Fatal("bootstrap did not seed from the primary's snapshot")
	}
	catchUp(t, f)
	assertIdentical(t, tp.g, f.cfg.Graph)

	// Mid-churn continuation: more primary batches, tail again, still identical.
	for _, b := range batches(2, 5, 25) {
		tp.append(t, b...)
	}
	catchUp(t, f)
	assertIdentical(t, tp.g, f.cfg.Graph)

	st := f.Stats()
	if st.RecordsApplied == 0 || st.BytesShipped == 0 || !st.Ready || st.Role != "follower" {
		t.Fatalf("stats did not track the session: %+v", st)
	}
	if ready, reason := f.Ready(); !ready {
		t.Fatalf("caught-up follower not ready: %s", reason)
	}
}

// TestDiskFollowerBootstrapKillResume is the durability pin: a follower
// bootstraps into a data directory, tails mid-churn, dies without cleanup,
// reboots from local state, and converges again — byte-identical both times.
func TestDiskFollowerBootstrapKillResume(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	bs := batches(3, 12, 20)
	for _, b := range bs[:4] {
		tp.append(t, b...)
	}
	if err := tp.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, b := range bs[4:8] {
		tp.append(t, b...)
	}

	dir := t.TempDir()
	if !NeedsBootstrap(dir) {
		t.Fatal("fresh dir does not need bootstrap")
	}
	if err := DownloadInto(context.Background(), nil, tp.srv.URL, dir, t.Logf); err != nil {
		t.Fatal(err)
	}
	if NeedsBootstrap(dir) {
		t.Fatal("completed bootstrap still reports needing one")
	}
	downloadedAt := tp.g.Version()
	for _, b := range bs[8:10] {
		tp.append(t, b...) // churn lands between the download and the boot
	}

	boot := func() (*persist.Store, *stream.Graph, *Follower) {
		st, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		g := stream.NewSharded(2)
		if _, err := st.Recover(g); err != nil {
			t.Fatal(err)
		}
		st.SetSource(g) // journaling goes through AppendRecord, not SetJournal
		f, err := NewFollower(FollowerConfig{Primary: tp.srv.URL, Graph: g, Store: st, WaitMS: 10, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Bootstrap(context.Background()); err != nil {
			t.Fatal(err)
		}
		return st, g, f
	}

	_, g1, f1 := boot()
	if g1.Version() != downloadedAt {
		t.Fatalf("local recovery reached version %d, want the downloaded %d", g1.Version(), downloadedAt)
	}
	catchUp(t, f1)
	assertIdentical(t, tp.g, g1)
	killedAt := g1.Version()
	// SIGKILL: the store is abandoned — no Close, no final snapshot.

	for _, b := range bs[10:] {
		tp.append(t, b...)
	}
	if NeedsBootstrap(dir) {
		t.Fatal("dir with replicated state reports needing bootstrap")
	}
	st2, g2, f2 := boot()
	defer st2.Close()
	if g2.Version() < killedAt {
		t.Fatalf("rebooted at version %d, below the %d already applied before the kill", g2.Version(), killedAt)
	}
	catchUp(t, f2)
	assertIdentical(t, tp.g, g2)
	if f2.Stats().Resyncs != 0 {
		t.Fatal("resume from local state should not have needed a snapshot resync")
	}
}

// TestFollowerResyncAfterTruncation pins the 410 path: a follower left
// behind a truncating snapshot converges through the snapshot diff and
// counts the resync — with the live version never overshooting the snapshot.
func TestFollowerResyncAfterTruncation(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	for _, b := range batches(5, 4, 15) {
		tp.append(t, b...)
	}

	f, err := NewFollower(FollowerConfig{Primary: tp.srv.URL, Graph: stream.New(), WaitMS: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f)
	behindAt := f.cfg.Graph.Version()

	// Primary moves on — including removals, so the diff has both sides —
	// and truncates past the follower's position.
	for _, b := range batches(6, 6, 15) {
		tp.append(t, b...)
	}
	snap, _ := tp.g.Snapshot()
	victim := []bipartite.Edge{}
	snap.Edges(func(e bipartite.Edge) bool {
		victim = append(victim, e)
		return len(victim) < 5
	})
	if res := tp.g.Remove(victim); res.Removed == 0 {
		t.Fatal("removal removed nothing")
	}
	if err := tp.st.Snapshot(); err != nil {
		t.Fatal(err)
	}

	status, err := f.tailOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGone {
		t.Fatalf("tail from %d after truncation answered %d, want 410", behindAt, status)
	}
	if err := f.resync(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f)
	assertIdentical(t, tp.g, f.cfg.Graph)
	if f.Stats().Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", f.Stats().Resyncs)
	}
}

// TestDownloadRestartsOnMovedState pins the bootstrap restart: a primary
// that snapshots between the manifest read and the segment download makes
// the attempt fail size validation, and the retry converges on the new
// manifest instead of mixing files from two listings.
func TestDownloadRestartsOnMovedState(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	for _, b := range batches(7, 5, 15) {
		tp.append(t, b...)
	}

	// A tripwire proxy: after serving the manifest once, compact the
	// primary's log before letting the first segment request through.
	tripped := false
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tripped && r.URL.Path == "/v1/repl/manifest" {
			tripped = true
			tp.p.Handler().ServeHTTP(w, r)
			tp.append(t, bipartite.Edge{U: 500, V: 500})
			if err := tp.st.Snapshot(); err != nil {
				t.Error(err)
			}
			return
		}
		tp.p.Handler().ServeHTTP(w, r)
	}))
	defer proxy.Close()

	dir := t.TempDir()
	if err := DownloadInto(context.Background(), nil, proxy.URL, dir, t.Logf); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(dir, persist.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := stream.New()
	if _, err := st.Recover(g); err != nil {
		t.Fatal(err)
	}
	if g.Version() != tp.g.Version() {
		t.Fatalf("bootstrapped to version %d, primary at %d", g.Version(), tp.g.Version())
	}
	ps, _ := tp.g.Snapshot()
	fs, _ := g.Snapshot()
	if !bytes.Equal(csr(t, ps), csr(t, fs)) {
		t.Fatal("bootstrapped CSR diverged")
	}
}

// TestNewFollowerRejectsBadURLs pins URL validation.
func TestNewFollowerRejectsBadURLs(t *testing.T) {
	for _, raw := range []string{"", "primary:8080", "ftp://x", "http://"} {
		if _, err := NewFollower(FollowerConfig{Primary: raw, Graph: stream.New()}); err == nil {
			t.Fatalf("NewFollower accepted %q", raw)
		}
	}
	if _, err := NewFollower(FollowerConfig{Primary: "http://localhost:1"}); err == nil {
		t.Fatal("NewFollower accepted a nil graph")
	}
}

// TestTailLongPollWakes pins the long-poll: a tail parked on an idle
// primary returns promptly once a record lands, without waiting out ?wait=.
func TestTailLongPollWakes(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	tp.append(t, bipartite.Edge{U: 1, V: 1})

	f, err := NewFollower(FollowerConfig{Primary: tp.srv.URL, Graph: stream.New(), WaitMS: 5000, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	catchUp(t, f)

	done := make(chan error, 1)
	go func() {
		_, err := f.tailOnce(context.Background())
		done <- err
	}()
	tp.append(t, bipartite.Edge{U: 2, V: 2})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := f.cfg.Graph.Version(); got != tp.g.Version() {
		t.Fatalf("woken tail applied to version %d, primary at %d", got, tp.g.Version())
	}
}
