package replicate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/faultinject"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// TestClassifyEpoch is the table for the one function every fencing decision
// funnels through: what a follower at (localEpoch, localVersion) does with a
// response from a node at respEpoch whose term began at epochStart.
func TestClassifyEpoch(t *testing.T) {
	cases := []struct {
		name                    string
		localEpoch, respEpoch   uint64
		localVersion, respStart uint64
		want                    EpochAction
	}{
		{"both pre-epoch", 0, 0, 10, 0, EpochOK},
		{"equal terms", 3, 3, 10, 5, EpochOK},
		// Equal epoch with the follower behind in versions is still OK — the
		// tail closes a version gap, terms are what fence.
		{"equal epoch, follower behind", 2, 2, 4, 2, EpochOK},
		{"stale responder (deposed primary)", 2, 1, 10, 0, EpochStale},
		{"stale responder, far behind", 5, 0, 0, 0, EpochStale},
		// History strictly before the new term's first version is a shared
		// prefix — adopt in place, keep tailing.
		{"newer term, shared prefix", 0, 1, 7, 8, EpochAdopt},
		{"newer term after reboot, shared prefix", 1, 3, 9, 10, EpochAdopt},
		// Holding versions at/past the boundary means those versions may
		// belong to the abandoned timeline — forced resync.
		{"newer term, at the boundary", 0, 1, 8, 8, EpochResync},
		{"newer term, past the boundary (forked)", 0, 1, 12, 8, EpochResync},
		// Epoch skew across a reboot: the node slept through several terms;
		// the classification only depends on the current boundary.
		{"epoch skew across reboot, forked", 1, 4, 20, 15, EpochResync},
		// An unknown boundary can never prove a shared prefix.
		{"newer term, unknown boundary", 0, 2, 0, 0, EpochResync},
	}
	for _, tc := range cases {
		if got := ClassifyEpoch(tc.localEpoch, tc.respEpoch, tc.localVersion, tc.respStart); got != tc.want {
			t.Errorf("%s: ClassifyEpoch(%d,%d,%d,%d) = %v, want %v",
				tc.name, tc.localEpoch, tc.respEpoch, tc.localVersion, tc.respStart, got, tc.want)
		}
	}
	for _, a := range []EpochAction{EpochOK, EpochStale, EpochAdopt, EpochResync, EpochAction(99)} {
		if a.String() == "" {
			t.Errorf("EpochAction(%d) has no String form", int(a))
		}
	}
}

// testNode is a durable failover-capable replica under test: data dir,
// store, graph, role manager, and an httptest server exposing the node's
// replication + admin surfaces (what a promoted node serves its peers).
type testNode struct {
	dir string
	g   *stream.Graph
	st  *persist.Store
	n   *Node
	srv *httptest.Server
	// recovered is the graph version local recovery reached, captured
	// before the tailer starts and can rewind it.
	recovered uint64
}

// newTestNode boots a node over dir (bootstrapping from primaryURL when the
// dir is empty), exactly as cmd/ensemfdetd wires a durable follower.
func newTestNode(t *testing.T, dir, primaryURL string, cfg NodeConfig) *testNode {
	t.Helper()
	ctx := context.Background()
	if primaryURL != "" && NeedsBootstrap(dir) {
		if err := DownloadInto(ctx, nil, primaryURL, dir, t.Logf); err != nil {
			t.Fatal(err)
		}
	}
	st, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	g := stream.NewSharded(2)
	if _, err := st.Recover(g); err != nil {
		t.Fatal(err)
	}
	st.SetSource(g)
	recovered := g.Version()
	cfg.Store, cfg.Graph = st, g
	if cfg.WaitMS == 0 {
		cfg.WaitMS = 50
	}
	if cfg.RetryMin == 0 {
		cfg.RetryMin = 2 * time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 50 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	n, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("GET /v1/repl/", n.ReplHandler())
	mux.Handle("POST /v1/admin/", n.AdminHandler())
	srv := httptest.NewServer(mux)
	tn := &testNode{dir: dir, g: g, st: st, n: n, srv: srv, recovered: recovered}
	t.Cleanup(func() { srv.Close(); n.Close(); st.Close() })
	if primaryURL != "" {
		if err := n.Follow(ctx, primaryURL); err != nil {
			t.Fatal(err)
		}
	}
	return tn
}

// waitVersion polls until g reaches at least v; the background tailer owns
// the apply path, so drills observe convergence instead of driving it.
func waitVersion(t *testing.T, g *stream.Graph, v uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Version() < v {
		if time.Now().After(deadline) {
			t.Fatalf("graph stuck at version %d, want ≥ %d", g.Version(), v)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitEpoch polls until the node adopts at least the given term.
func waitEpoch(t *testing.T, n *Node, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Epoch() < epoch {
		if time.Now().After(deadline) {
			t.Fatalf("node stuck at epoch %d, want ≥ %d", n.Epoch(), epoch)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFailoverDrillKillThePrimary is the full in-process drill the CI smoke
// re-runs across real processes: churn through a primary with two durable
// followers, kill the primary mid-churn after it acknowledged writes the
// followers never saw (a forked history), promote follower A, re-point
// follower B at A, continue churn, reboot the old primary as a follower of A,
// and require all three graphs byte-identical — with the old primary durably
// fenced so it can never acknowledge a write again.
func TestFailoverDrillKillThePrimary(t *testing.T) {
	// The primary is assembled by hand (not newTestPrimary) so the drill can
	// abandon its store without Close — that is what kill -9 leaves behind.
	pDir := t.TempDir()
	pStore, err := persist.Open(pDir, persist.Options{Fsync: persist.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	pGraph := stream.NewSharded(4)
	if _, err := pStore.Recover(pGraph); err != nil {
		t.Fatal(err)
	}
	pGraph.SetJournal(pStore)
	pStore.SetSource(pGraph)
	pPrimary := NewPrimary(PrimaryConfig{Store: pStore, Version: pGraph.Version, Logf: t.Logf})
	pSrv := httptest.NewServer(pPrimary.Handler())

	bs := batches(11, 14, 20)
	for _, b := range bs[:4] {
		if res := pGraph.Append(b); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if err := pStore.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// Follower A tails through a faulty network: dropped requests and a torn
	// tail chunk, seed-driven so a failure replays byte-identically. It must
	// converge anyway — and spend jittered backoff doing it. The rules arm
	// only after the bootstrap handshake: a torn bootstrap is a boot failure
	// by design (the daemon exits and the supervisor retries), not a retry
	// loop, so it is out of scope for the churn drill.
	inj := faultinject.New(42)
	aClient := &http.Client{Transport: &faultinject.Transport{Inj: inj}}
	a := newTestNode(t, t.TempDir(), pSrv.URL, NodeConfig{Client: aClient})
	inj.Arm(faultinject.PointHTTPDrop, faultinject.Rule{Prob: 0.2, Count: 5})
	inj.Arm(faultinject.PointHTTPTorn, faultinject.Rule{Prob: 0.2, Count: 3})
	b := newTestNode(t, t.TempDir(), pSrv.URL, NodeConfig{})

	for _, batch := range bs[4:8] {
		if res := pGraph.Append(batch); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	waitVersion(t, a.g, pGraph.Version())
	waitVersion(t, b.g, pGraph.Version())
	if inj.Hits(faultinject.PointHTTPDrop)+inj.Hits(faultinject.PointHTTPTorn) == 0 {
		t.Fatal("fault injector never fired; the drill did not exercise the faulty network")
	}

	// KILL -9: the serving socket dies first; then the primary acknowledges
	// more batches that no follower will ever see — the forked suffix.
	pSrv.Close()
	forkBase := pGraph.Version()
	for _, batch := range bs[8:11] {
		if res := pGraph.Append(batch); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// No pStore.Close(): the process is gone, the handles just vanish.

	// Promote A. The fence record takes its own version slot.
	epoch, err := a.n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first promotion minted epoch %d, want 1", epoch)
	}
	if a.n.Role() != "primary" {
		t.Fatalf("promoted node reports role %q", a.n.Role())
	}
	if e, start, owned := a.st.Epoch(); e != 1 || !owned || start != forkBase+1 {
		t.Fatalf("fence after promote: epoch=%d start=%d owned=%v, want 1/%d/true", e, start, owned, forkBase+1)
	}
	if got, reason := a.n.Ready(); !got {
		t.Fatalf("promoted node not ready: %s", reason)
	}

	// Re-point B at A; its history is a shared prefix of the new timeline,
	// so the fence record (or manifest classification) adopts the term in
	// place — no resync, nothing rewound.
	if err := b.n.Follow(context.Background(), a.srv.URL); err != nil {
		t.Fatal(err)
	}
	waitEpoch(t, b.n, 1)

	// Churn continues on the new primary (the drill's "writes keep flowing").
	for _, batch := range batches(12, 4, 20) {
		if res := a.g.Append(batch); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	waitVersion(t, b.g, a.g.Version())
	assertIdentical(t, a.g, b.g)
	if b.n.Follower().Stats().EpochResyncs != 0 {
		t.Fatal("shared-prefix follower should have adopted in place, not resynced")
	}

	// Reboot the old primary from its data dir as a follower of A. It
	// recovers the forked suffix (versions past the fence), so it must
	// converge through an epoch-boundary resync — and come out fenced. The
	// check reads the version recovery reached, not the live graph: the
	// tailer may already have rewound the fork by the time Follow returns.
	old := newTestNode(t, pDir, a.srv.URL, NodeConfig{})
	if old.recovered <= forkBase {
		t.Fatalf("rebooted old primary recovered to %d; the forked suffix (past %d) is missing from the drill", old.recovered, forkBase)
	}
	waitEpoch(t, old.n, 1)
	waitVersion(t, old.g, a.g.Version())
	assertIdentical(t, a.g, old.g)
	assertIdentical(t, a.g, b.g)
	if old.n.Follower().Stats().EpochResyncs == 0 {
		t.Fatal("forked old primary converged without an epoch-boundary resync")
	}

	// The fencing guarantee: the deposed primary can never acknowledge a
	// write again — not through its store, not across its own reboot.
	if err := old.st.AppendEdges(old.g.Version()+1, []bipartite.Edge{{U: 1, V: 1}}); !errors.Is(err, persist.ErrFenced) {
		t.Fatalf("deposed primary's store accepted a write: %v", err)
	}
	if e, _, owned := old.st.Epoch(); e != 1 || owned {
		t.Fatalf("deposed primary fence: epoch=%d owned=%v, want 1/false", e, owned)
	}
}

// TestDeposedPrimaryFailStopsOnHigherEpoch pins the coordinator-free
// deposition signal: the moment any request advertises a higher term, a
// running primary durably drops write ownership — before answering — and
// every subsequent local write fails with ErrFenced, while replication reads
// keep working so the new timeline's followers can still chain through it.
func TestDeposedPrimaryFailStopsOnHigherEpoch(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	tp.append(t, batches(21, 1, 10)[0]...)

	req, err := http.NewRequest(http.MethodGet, tp.srv.URL+"/v1/repl/manifest", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(hdrEpoch, "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest after deposition: %s (replication reads must keep serving)", resp.Status)
	}
	if got := resp.Header.Get(hdrEpoch); got != "2" {
		t.Fatalf("deposed primary advertises epoch %q, want the adopted 2", got)
	}
	if tp.p.Stats().EpochFences != 1 {
		t.Fatalf("epoch_fences = %d, want 1", tp.p.Stats().EpochFences)
	}
	if e, _, owned := tp.st.Epoch(); e != 2 || owned {
		t.Fatalf("fence after deposition: epoch=%d owned=%v, want 2/false", e, owned)
	}
	// The write path is dead: the graph commits in memory but the journal
	// refuses, surfacing ErrFenced to the ingest caller.
	if res := tp.g.Append([]bipartite.Edge{{U: 900, V: 900}}); !errors.Is(res.Err, persist.ErrFenced) {
		t.Fatalf("deposed primary acknowledged a write: %v", res.Err)
	}
}

// TestDeposedPromotedNodeReportsFenced is the stats half of deposition for a
// node that won its primary role by promotion: once a higher term reaches it,
// its stats must say fenced — the same as a primary started as one.
func TestDeposedPromotedNodeReportsFenced(t *testing.T) {
	n := newTestNode(t, t.TempDir(), "", NodeConfig{})
	if _, err := n.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if rs := n.n.Stats(); rs.Role != "primary" || rs.Fenced || rs.Epoch != 1 || rs.Promotions != 1 || !rs.Ready {
		t.Fatalf("promoted node stats: %+v, want an owned primary at epoch 1", rs)
	}
	req, err := http.NewRequest(http.MethodGet, n.srv.URL+"/v1/repl/manifest", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(hdrEpoch, "9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if e, _, owned := n.st.Epoch(); e != 9 || owned {
		t.Fatalf("fence after deposition: epoch=%d owned=%v, want 9/false", e, owned)
	}
	rs := n.n.Stats()
	if rs.Role != "primary" || !rs.Fenced || rs.Epoch != 9 || rs.EpochFences != 1 || rs.Promotions != 1 {
		t.Fatalf("deposed promoted node stats: %+v, want a fenced primary at epoch 9", rs)
	}
}

// TestFollowerRefusesStaleEpoch pins the stale half of the handshake: a
// follower that has adopted a newer term refuses everything an old-term node
// ships, no matter what records ride in the response.
func TestFollowerRefusesStaleEpoch(t *testing.T) {
	// A stub primary stuck in epoch 1 that would happily ship a record.
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(hdrEpoch, "1")
		w.Header().Set(hdrPrimaryVersion, "99")
		w.WriteHeader(http.StatusOK)
	}))
	defer stale.Close()

	f, err := NewFollower(FollowerConfig{Primary: stale.URL, Graph: stream.New(), WaitMS: 10, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	f.memEpoch.Store(3)
	if _, err := f.tailOnce(context.Background()); !errors.Is(err, errEpochStale) {
		t.Fatalf("tail from a stale-epoch node returned %v, want errEpochStale", err)
	}
	if f.cfg.Graph.Version() != 0 {
		t.Fatal("stale-epoch response still applied records")
	}
	if f.lastRespEpoch() != 1 {
		t.Fatalf("respEpoch = %d, want 1", f.lastRespEpoch())
	}
}

// TestNodeDoublePromote pins promotion idempotence: a retried admin call must
// not mint an extra term, and the promotion counter reflects one transition.
func TestNodeDoublePromote(t *testing.T) {
	n := newTestNode(t, t.TempDir(), "", NodeConfig{})
	e1, err := n.n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := n.n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 || e1 != 1 {
		t.Fatalf("double promote minted epochs %d then %d, want 1 both times", e1, e2)
	}
	if n.n.Promotions() != 1 {
		t.Fatalf("promotions = %d, want 1", n.n.Promotions())
	}
	// Demotion is not an HTTP request away.
	if err := n.n.Follow(context.Background(), "http://localhost:1"); err == nil {
		t.Fatal("Follow on a primary succeeded; demote must require a restart")
	}
}

// TestNodePromoteCrashPoints drills the two crash-points around the promote
// fsync. Before the fence: nothing durable changed, the node deliberately
// holds not-ready (it is neither follower nor primary), and a retry wins the
// term. After the fence: the epoch is durable with ownership, so the
// "rebooted" node resumes as primary of the term it won — without minting a
// new one.
func TestNodePromoteCrashPoints(t *testing.T) {
	t.Run("pre-fence", func(t *testing.T) {
		inj := faultinject.New(7)
		inj.Arm("promote.pre-fence", faultinject.Rule{Count: 1})
		tn := newTestNode(t, t.TempDir(), "", NodeConfig{Inject: inj.Check})
		if _, err := tn.n.Promote(); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("armed crash-point did not abort: %v", err)
		}
		if e, _, owned := tn.st.Epoch(); e != 0 || !owned {
			t.Fatalf("pre-fence abort changed the fence: epoch=%d owned=%v", e, owned)
		}
		if ready, reason := tn.n.Ready(); ready || reason == "" {
			t.Fatalf("mid-promote node reports ready=%v (%q)", ready, reason)
		}
		if tn.n.Role() != "promoting" {
			t.Fatalf("role = %q, want promoting", tn.n.Role())
		}
		// The rule is spent; the operator's retry completes the promotion.
		if e, err := tn.n.Promote(); err != nil || e != 1 {
			t.Fatalf("retry after pre-fence crash: epoch=%d err=%v", e, err)
		}
	})
	t.Run("post-fence", func(t *testing.T) {
		inj := faultinject.New(7)
		inj.Arm("promote.post-fence", faultinject.Rule{Count: 1})
		dir := t.TempDir()
		tn := newTestNode(t, dir, "", NodeConfig{Inject: inj.Check})
		if _, err := tn.n.Promote(); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("armed crash-point did not abort: %v", err)
		}
		// The fence landed before the crash: epoch 1, owned — the commit
		// point of the promotion survived the process.
		if e, _, owned := tn.st.Epoch(); e != 1 || !owned {
			t.Fatalf("post-fence crash lost the fence: epoch=%d owned=%v", e, owned)
		}
		if ready, _ := tn.n.Ready(); ready {
			t.Fatal("crashed-mid-promote node reports ready")
		}
		tn.n.Close()
		tn.st.Close()
		tn.srv.Close()

		reboot := newTestNode(t, dir, "", NodeConfig{})
		if e, _, owned := reboot.st.Epoch(); e != 1 || !owned {
			t.Fatalf("reboot lost the fence: epoch=%d owned=%v", e, owned)
		}
		if err := reboot.n.BecomePrimary(); err != nil {
			t.Fatal(err)
		}
		if reboot.n.Role() != "primary" || reboot.n.Epoch() != 1 {
			t.Fatalf("rebooted owner: role=%q epoch=%d, want primary/1", reboot.n.Role(), reboot.n.Epoch())
		}
	})
}

// TestNodePromoteDuringInflightTail promotes while the tailer is parked in a
// long poll against the old primary: the in-flight exchange must be cut off
// before the fence, and no record from the old timeline may land after it.
func TestNodePromoteDuringInflightTail(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	for _, b := range batches(31, 3, 15) {
		tp.append(t, b...)
	}
	// A long wait guarantees the tail goroutine is inside an exchange when
	// Promote lands.
	tn := newTestNode(t, t.TempDir(), tp.srv.URL, NodeConfig{WaitMS: 20000})
	waitVersion(t, tn.g, tp.g.Version())

	atPromote := tn.g.Version()
	epoch, err := tn.n.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("epoch = %d, want 1", epoch)
	}
	// The fence record occupies exactly one version slot past the promote
	// point; the old primary appending afterwards must not reach this node.
	if got := tn.g.Version(); got != atPromote+1 {
		t.Fatalf("version after promote = %d, want %d (fence slot only)", got, atPromote+1)
	}
	tp.append(t, bipartite.Edge{U: 777, V: 777})
	time.Sleep(20 * time.Millisecond)
	if got := tn.g.Version(); got != atPromote+1 {
		t.Fatalf("old-timeline record landed after the fence: version %d", got)
	}
	if tn.n.Follower() != nil {
		t.Fatal("promoted node still has a live tailing half")
	}
}

// TestAdminHTTPRoundTrip drives the failover control surface the way the CI
// drill does — over HTTP: promote A via POST /v1/admin/promote, re-point B
// via POST /v1/admin/follow, and require byte-identical votes on both.
func TestAdminHTTPRoundTrip(t *testing.T) {
	tp := newTestPrimary(t, persist.Options{Fsync: persist.FsyncNever})
	for _, b := range batches(41, 4, 15) {
		tp.append(t, b...)
	}
	if err := tp.st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	a := newTestNode(t, t.TempDir(), tp.srv.URL, NodeConfig{})
	b := newTestNode(t, t.TempDir(), tp.srv.URL, NodeConfig{})
	waitVersion(t, a.g, tp.g.Version())
	waitVersion(t, b.g, tp.g.Version())
	tp.srv.Close()

	var promoted struct {
		Role    string `json:"role"`
		Epoch   uint64 `json:"epoch"`
		Version uint64 `json:"version"`
	}
	resp, err := http.Post(a.srv.URL+"/v1/admin/promote", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&promoted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || promoted.Role != "primary" || promoted.Epoch != 1 {
		t.Fatalf("promote response: %d %+v", resp.StatusCode, promoted)
	}

	// Bad follow bodies are client errors, not crashes.
	for _, body := range []string{"", `{"primary":""}`, `{"primary":`} {
		resp, err := http.Post(b.srv.URL+"/v1/admin/follow", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("follow with body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err = http.Post(b.srv.URL+"/v1/admin/follow", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"primary":%q}`, a.srv.URL))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow: status %d", resp.StatusCode)
	}
	// A promoted node refuses to be re-pointed.
	resp, err = http.Post(a.srv.URL+"/v1/admin/follow", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"primary":%q}`, b.srv.URL))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("follow on a primary: status %d, want 409", resp.StatusCode)
	}

	for _, batch := range batches(42, 3, 15) {
		if res := a.g.Append(batch); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	waitVersion(t, b.g, a.g.Version())
	assertIdentical(t, a.g, b.g)
	if got := strconv.FormatUint(b.n.Epoch(), 10); got != "1" {
		t.Fatalf("re-pointed follower at epoch %s, want 1", got)
	}
}

// TestFollowerBackoffJitterAndRetryAfter pins the backoff satellite: pause
// jitters into [base/2, base], a primary's Retry-After raises the sleep when
// longer, and every slept nanosecond lands in the BackoffSeconds counter.
func TestFollowerBackoffJitterAndRetryAfter(t *testing.T) {
	f, err := NewFollower(FollowerConfig{Primary: "http://localhost:1", Graph: stream.New(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base := 20 * time.Millisecond
	for i := 0; i < 5; i++ {
		start := time.Now()
		if !f.pause(ctx, base) {
			t.Fatal("pause returned early without cancellation")
		}
		if slept := time.Since(start); slept < base/2-time.Millisecond || slept > base*3 {
			t.Fatalf("pause slept %v, want jittered into [%v, %v]", slept, base/2, base)
		}
	}
	// A Retry-After hint longer than the computed backoff wins — and is
	// consumed (one sleep, not a permanent floor).
	f.retryAfterHint.Store(int64(60 * time.Millisecond))
	start := time.Now()
	f.pause(ctx, base)
	if slept := time.Since(start); slept < 55*time.Millisecond {
		t.Fatalf("Retry-After hint ignored: slept %v, want ≥ ~60ms", slept)
	}
	if hint := f.retryAfterHint.Load(); hint != 0 {
		t.Fatalf("hint not consumed: %d", hint)
	}
	if s := f.Stats().BackoffSeconds; s <= 0 {
		t.Fatalf("BackoffSeconds = %v, want > 0", s)
	}
	// A canceled context cuts the sleep short and reports it.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if f.pause(canceled, time.Minute) {
		t.Fatal("pause ignored a canceled context")
	}
}
