package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ensemfdet/internal/replicate"
	"ensemfdet/internal/stream"
)

// replicaDaemon boots the HTTP stack in follower shape: read-only, with a
// controllable readiness gate.
func replicaDaemon(t *testing.T, ready *bool, reason *string) *httptest.Server {
	t.Helper()
	e := NewEngine(stream.New(), Options{})
	e.AttachRepl(func() *replicate.ReplStats {
		return &replicate.ReplStats{Role: "follower", Primary: "http://primary:8080", VersionsBehind: 3,
			SecondsBehind: 1.5, RecordsApplied: 42, BytesShipped: 4096, Ready: *ready}
	})
	srv := httptest.NewServer(NewHandlerWith(e, HandlerConfig{
		ReadOnly:   func() bool { return true },
		PrimaryURL: func() string { return "http://primary:8080" },
		Ready:      func() (bool, string) { return *ready, *reason },
		Version:    "test-1.2.3",
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestFollowerWriteGuard pins the 403 contract: every mutating request —
// including methods and POST routes that do not exist today — is rejected
// with a body naming the primary, while reads and POST /v1/detect pass.
func TestFollowerWriteGuard(t *testing.T) {
	ready, reason := true, ""
	srv := replicaDaemon(t, &ready, &reason)

	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	for _, tc := range []struct{ method, path string }{
		{"POST", "/v1/edges"},
		{"POST", "/v1/some-future-route"},
		{"PUT", "/v1/edges"},
		{"DELETE", "/v1/stats"},
		{"PATCH", "/v1/votes"},
	} {
		status, body := do(tc.method, tc.path, `{"edges":[[1,2]]}`)
		if status != http.StatusForbidden {
			t.Errorf("%s %s: status %d, want 403", tc.method, tc.path, status)
		}
		if !strings.Contains(body, "http://primary:8080") {
			t.Errorf("%s %s: rejection body does not name the primary: %s", tc.method, tc.path, body)
		}
	}

	if status, body := do("POST", "/v1/detect", `{"n":4,"s":0.5}`); status != http.StatusOK {
		t.Errorf("POST /v1/detect on a replica: status %d, body %s — detection is a read and must pass", status, body)
	}
	for _, path := range []string{"/v1/votes", "/v1/stats", "/metrics", "/healthz", "/readyz"} {
		if status, body := do("GET", path, ""); status != http.StatusOK {
			t.Errorf("GET %s on a replica: status %d, body %s", path, status, body)
		}
	}
}

// TestReadyz pins the readiness gate: distinct from /healthz, 503 with the
// gate's reason while not ready, 200 once ready, and always 200 without a
// gate (the primary shape).
func TestReadyz(t *testing.T) {
	ready, reason := false, "replication lag 12 versions exceeds 8"
	srv := replicaDaemon(t, &ready, &reason)

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if status, body := get("/readyz"); status != http.StatusServiceUnavailable || !strings.Contains(body, reason) {
		t.Fatalf("not-ready /readyz: status %d body %s", status, body)
	}
	if status, _ := get("/healthz"); status != http.StatusOK {
		t.Fatal("liveness must not follow readiness")
	}
	ready = true
	if status, _ := get("/readyz"); status != http.StatusOK {
		t.Fatal("/readyz still failing after the gate opened")
	}

	primary := httptest.NewServer(NewHandler(NewEngine(stream.New(), Options{})))
	defer primary.Close()
	resp, err := http.Get(primary.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ungated /readyz: status %d, want 200", resp.StatusCode)
	}
}

// TestReplStatsAndMetrics pins the observability surface: the repl section
// in /v1/stats and the ensemfdetd_repl_* and build-info series in /metrics.
func TestReplStatsAndMetrics(t *testing.T) {
	ready, reason := true, ""
	srv := replicaDaemon(t, &ready, &reason)

	var stats struct {
		Repl *replicate.ReplStats `json:"repl"`
	}
	if status := getJSON(t, srv.URL+"/v1/stats", &stats); status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	if stats.Repl == nil || stats.Repl.Role != "follower" || stats.Repl.VersionsBehind != 3 ||
		stats.Repl.RecordsApplied != 42 || !stats.Repl.Ready {
		t.Fatalf("repl stats section: %+v", stats.Repl)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(raw)
	if !strings.Contains(body, `ensemfdetd_build_info{version="test-1.2.3"} 1`) {
		t.Error("build info series missing or mislabelled")
	}
	if !strings.Contains(body, `ensemfdetd_repl_role{role="follower"} 1`) {
		t.Error("repl role series missing")
	}
	for series, want := range map[string]float64{
		"ensemfdetd_repl_versions_behind":       3,
		"ensemfdetd_repl_seconds_behind":        1.5,
		"ensemfdetd_repl_records_applied_total": 42,
		"ensemfdetd_repl_bytes_shipped_total":   4096,
		"ensemfdetd_repl_ready":                 1,
	} {
		if got := metricValue(t, body, series); got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}

	// A standalone daemon exposes neither section.
	plain := httptest.NewServer(NewHandler(NewEngine(stream.New(), Options{})))
	defer plain.Close()
	var plainStats struct {
		Repl *replicate.ReplStats `json:"repl"`
	}
	getJSON(t, plain.URL+"/v1/stats", &plainStats)
	if plainStats.Repl != nil {
		t.Fatalf("standalone daemon grew a repl section: %+v", plainStats.Repl)
	}

	// And a primary role renders the shipping counters.
	pe := NewEngine(stream.New(), Options{})
	pe.AttachRepl(func() *replicate.ReplStats {
		return &replicate.ReplStats{Role: "primary", Ready: true, BytesShipped: 123, TailRequests: 7, TailRecords: 5, FilesShipped: 2}
	})
	psrv := httptest.NewServer(NewHandlerWith(pe, HandlerConfig{}))
	defer psrv.Close()
	presp, err := http.Get(psrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	praw, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	pbody := string(praw)
	if !strings.Contains(pbody, `ensemfdetd_repl_role{role="primary"} 1`) {
		t.Error("primary repl role series missing")
	}
	if got := metricValue(t, pbody, "ensemfdetd_repl_tail_requests_total"); got != 7 {
		t.Errorf("tail_requests_total = %g, want 7", got)
	}
}

// TestReplHandlerMount pins HandlerConfig.Repl: requests under /v1/repl/
// reach the mounted handler; without one they 404.
func TestReplHandlerMount(t *testing.T) {
	e := NewEngine(stream.New(), Options{})
	mounted := httptest.NewServer(NewHandlerWith(e, HandlerConfig{
		Repl: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintf(w, "repl:%s", r.URL.Path)
		}),
	}))
	defer mounted.Close()
	resp, err := http.Get(mounted.URL + "/v1/repl/manifest")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(raw) != "repl:/v1/repl/manifest" {
		t.Fatalf("mounted repl handler: status %d body %q", resp.StatusCode, raw)
	}

	bare := httptest.NewServer(NewHandler(NewEngine(stream.New(), Options{})))
	defer bare.Close()
	resp2, err := http.Get(bare.URL + "/v1/repl/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unmounted /v1/repl/: status %d, want 404", resp2.StatusCode)
	}
}
