package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/faultinject"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/replicate"
	"ensemfdet/internal/stream"
)

// degradedJournal fails every append the way a gapped WAL does.
type degradedJournal struct{ err error }

func (j degradedJournal) AppendEdges(uint64, []bipartite.Edge) error { return j.err }
func (j degradedJournal) RetireEdges(uint64, []bipartite.Edge, stream.WindowMark) error {
	return j.err
}

// TestIngestDegradedStoreIs503 pins the degraded-ingest contract: a WAL gap
// is a retryable outage, so the response is 503 with a Retry-After hint and a
// machine-readable "degraded" marker — not the bare 500 that taught clients
// to treat it as fatal.
func TestIngestDegradedStoreIs503(t *testing.T) {
	g := stream.New()
	g.SetJournal(degradedJournal{err: fmt.Errorf("persist: WAL gap at version 3: %w", persist.ErrDegraded)})
	srv := httptest.NewServer(NewHandler(NewEngine(g, Options{})))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/edges", "application/json",
		bytes.NewReader([]byte(`{"edges":[[1,2]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded ingest: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("degraded ingest carries no Retry-After hint")
	}
	var body struct {
		Error    string `json:"error"`
		Degraded bool   `json:"degraded"`
	}
	decodeResponse(t, resp, &body)
	if !body.Degraded || body.Error == "" {
		t.Fatalf("degraded ingest body: %+v, want degraded=true with an error", body)
	}
}

// TestIngestFencedStoreIs409 pins the fenced-ingest contract: a deposed
// primary's refusal is permanent for this node, so the response is 409 with a
// "fenced" marker — retrying here can never succeed, re-target the new
// primary.
func TestIngestFencedStoreIs409(t *testing.T) {
	g := stream.New()
	g.SetJournal(degradedJournal{err: fmt.Errorf("%w: epoch 4 is owned by another primary", persist.ErrFenced)})
	srv := httptest.NewServer(NewHandler(NewEngine(g, Options{})))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/edges", "application/json",
		bytes.NewReader([]byte(`{"edges":[[1,2]]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fenced ingest: status %d, want 409", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("fenced ingest suggests retrying (Retry-After %q); it must not", ra)
	}
	var body struct {
		Error  string `json:"error"`
		Fenced bool   `json:"fenced"`
	}
	decodeResponse(t, resp, &body)
	if !body.Fenced || body.Error == "" {
		t.Fatalf("fenced ingest body: %+v, want fenced=true naming the ruling epoch", body)
	}
}

// failoverNode wires a real durable replication node into the serving stack
// exactly as cmd/ensemfdetd does — ReadOnly, Ready, and Admin all tracking
// the live role.
func failoverNode(t *testing.T, inject func(string) error) (*replicate.Node, *httptest.Server) {
	t.Helper()
	st, err := persist.Open(t.TempDir(), persist.Options{Fsync: persist.FsyncNever, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	g := stream.New()
	if _, err := st.Recover(g); err != nil {
		t.Fatal(err)
	}
	st.SetSource(g)
	node, err := replicate.NewNode(replicate.NodeConfig{Store: st, Graph: g, Inject: inject, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	engine := NewEngine(g, Options{})
	h := NewHandlerWith(engine, HandlerConfig{
		ReadOnly: func() bool { return node.Role() != "primary" },
		Ready:    node.Ready,
		Admin:    node.AdminHandler(),
	})
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); node.Close(); st.Close() })
	return node, srv
}

// TestReadyzDuringPromotion is the mid-promote regression: between stopping
// the tail and the fence fsync the node is neither a current follower nor a
// safe primary, and /readyz must say so — a crash-point abort (the process
// crash it simulates) leaves it not-ready until re-promoted.
func TestReadyzDuringPromotion(t *testing.T) {
	inj := faultinject.New(3)
	inj.Arm("promote.pre-fence", faultinject.Rule{Count: 1})
	node, srv := failoverNode(t, inj.Check)

	readyz := func() (int, map[string]string) {
		var body map[string]string
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		decodeResponse(t, resp, &body)
		return resp.StatusCode, body
	}

	// Not following anyone, not promoted: not ready, but not the promote
	// reason either.
	if code, _ := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("idle node readyz: %d, want 503", code)
	}
	if _, err := node.Promote(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("armed crash-point did not abort: %v", err)
	}
	code, body := readyz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("mid-promote readyz: %d, want 503", code)
	}
	if body["reason"] != "promotion in progress: epoch fence not yet durable" {
		t.Fatalf("mid-promote reason: %q", body["reason"])
	}
	// The retry completes the promotion; the fence is durable; ready.
	if _, err := node.Promote(); err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("promoted readyz: %d %v", code, body)
	}
}

// TestPromoteDropsReadOnlyGuard drives a promotion through the public HTTP
// surface: the read-only guard must let the admin call through on a follower
// and stop rejecting ingest the moment the role flips — no handler rebuild.
func TestPromoteDropsReadOnlyGuard(t *testing.T) {
	_, srv := failoverNode(t, nil)

	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/v1/edges", `{"edges":[[1,2]]}`); code != http.StatusForbidden {
		t.Fatalf("ingest on a follower: %d, want 403", code)
	}
	// Reads and detect stay open under the guard.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats on a follower: %d, want 200", resp.StatusCode)
	}
	if code := post("/v1/detect", `{"n":2,"s":0.5}`); code != http.StatusOK {
		t.Fatalf("detect on a follower: %d, want 200", code)
	}
	// The control surface is exempt — it is how a follower stops being one.
	if code := post("/v1/admin/promote", ""); code != http.StatusOK {
		t.Fatalf("promote through the guard: %d, want 200", code)
	}
	if code := post("/v1/edges", `{"edges":[[1,2]]}`); code != http.StatusOK {
		t.Fatalf("ingest after promotion: %d, want 200", code)
	}
}
