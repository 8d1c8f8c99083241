package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"
)

// daemonBin is the ensemfdetd binary built once by TestMain for the
// binary-level tests below.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ensemfdetd-e2e-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "ensemfdetd")
	if out, err := exec.Command("go", "build", "-o", daemonBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building ensemfdetd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestBadIngestQueueLeavesDataDirUntouched pins flag validation order: a
// negative -ingest-queue is a wiring mistake caught with the other flag
// checks, before the data dir is opened, recovered or bootstrapped into.
func TestBadIngestQueueLeavesDataDirUntouched(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(daemonBin, "-addr", "127.0.0.1:0", "-data-dir", dir, "-ingest-queue", "-1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("-ingest-queue -1 exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-ingest-queue") {
		t.Fatalf("exit message does not name the flag:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("rejected flags left state in the data dir: %v", names)
	}
}

// daemon is one running ensemfdetd process on a loopback port.
type daemon struct {
	url string
	cmd *exec.Cmd
	log *bytes.Buffer
}

// freeAddr picks a loopback port the kernel reports free. The daemon only
// prints the address it was given, so the port is chosen here.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// startDaemon runs the binary with args plus a fresh -addr and waits for
// /healthz. The process is killed at cleanup: a primary's long-poll tail
// handlers would otherwise hold a graceful drain open.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	addr := freeAddr(t)
	d := &daemon{url: "http://" + addr, log: new(bytes.Buffer)}
	d.cmd = exec.Command(daemonBin, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		_ = d.cmd.Process.Signal(syscall.SIGKILL)
		<-exited
		if t.Failed() {
			t.Logf("ensemfdetd %v log:\n%s", args, d.log.String())
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-exited:
			t.Fatalf("ensemfdetd %v exited during boot:\n%s", args, d.log.String())
		default:
		}
		if resp, err := http.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ensemfdetd %v not healthy after 30s", args)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// do sends one request and returns the status and body.
func (d *daemon) do(t *testing.T, method, path, body string, hdr map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, d.url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// repl returns the "repl" object of /v1/stats, raw per key, and the graph
// version beside it.
func (d *daemon) repl(t *testing.T) (map[string]json.RawMessage, uint64) {
	t.Helper()
	code, body := d.do(t, http.MethodGet, "/v1/stats", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/stats: %d %s", code, body)
	}
	var st struct {
		Graph struct {
			Version uint64 `json:"version"`
		} `json:"graph"`
		Repl map[string]json.RawMessage `json:"repl"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st.Repl, st.Graph.Version
}

// replMetrics returns every ensemfdetd_repl_* sample line of /metrics,
// keyed by metric name.
func (d *daemon) replMetrics(t *testing.T) map[string]string {
	t.Helper()
	code, body := d.do(t, http.MethodGet, "/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "ensemfdetd_repl_") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		out[name] = line
	}
	return out
}

func (d *daemon) ingest(t *testing.T, edges string) {
	t.Helper()
	if code, body := d.do(t, http.MethodPost, "/v1/edges", `{"edges":`+edges+`}`, nil); code != http.StatusOK {
		t.Fatalf("ingest: %d %s", code, body)
	}
}

// waitApplied waits until d's graph reaches version want and its stats say
// it is caught up and ready.
func (d *daemon) waitApplied(t *testing.T, want uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rs, v := d.repl(t)
		if v == want && string(rs["ready"]) == "true" && string(rs["applied_version"]) == fmt.Sprint(want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at version %d (want %d): %v", d.url, v, want, rs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Metric name sets per role, as the serving layer groups them.
var (
	replMetricsCommon = []string{
		"ensemfdetd_repl_bytes_shipped_total",
		"ensemfdetd_repl_epoch",
		"ensemfdetd_repl_fenced",
		"ensemfdetd_repl_promotions_total",
		"ensemfdetd_repl_role",
	}
	replMetricsPrimary = []string{
		"ensemfdetd_repl_epoch_fences_total",
		"ensemfdetd_repl_files_shipped_total",
		"ensemfdetd_repl_tail_records_total",
		"ensemfdetd_repl_tail_requests_total",
	}
	replMetricsFollower = []string{
		"ensemfdetd_repl_backoff_seconds",
		"ensemfdetd_repl_epoch_adopts_total",
		"ensemfdetd_repl_epoch_rejects_total",
		"ensemfdetd_repl_epoch_resyncs_total",
		"ensemfdetd_repl_journal_errors_total",
		"ensemfdetd_repl_ready",
		"ensemfdetd_repl_reconnects_total",
		"ensemfdetd_repl_records_applied_total",
		"ensemfdetd_repl_resyncs_total",
		"ensemfdetd_repl_seconds_behind",
		"ensemfdetd_repl_tombstones_applied_total",
		"ensemfdetd_repl_versions_behind",
	}
)

// TestReplStatsContractPerRole pins the replication section of /v1/stats
// and /metrics for every role the daemon can hold — memory-only follower,
// -serve-replication primary (owned, then fenced), durable follower,
// promoted node, and a promoted node later deposed — against real
// processes. Keys with omitempty tags appear only when non-zero, so the
// scenario is fixed: every follower has applied tailed records, the primary
// has shipped files and records, and each fence comes from exactly one
// higher-epoch request.
func TestReplStatsContractPerRole(t *testing.T) {
	primary := startDaemon(t, "-data-dir", t.TempDir(), "-serve-replication", "-fsync", "never")
	primary.ingest(t, `[[0,0],[0,1],[1,0],[1,1]]`)
	memFollower := startDaemon(t, "-follow", primary.url)
	node := startDaemon(t, "-data-dir", t.TempDir(), "-fsync", "never", "-follow", primary.url)
	memFollower.waitApplied(t, 1)
	node.waitApplied(t, 1)
	primary.ingest(t, `[[2,2],[2,3]]`)
	memFollower.waitApplied(t, 2)
	node.waitApplied(t, 2)

	type row struct {
		name    string
		d       *daemon
		role    string
		fenced  bool
		keys    []string
		metrics []string
	}
	follower := []string{"applied_version", "bytes_shipped", "epoch", "primary", "primary_version",
		"ready", "records_applied", "role", "seconds_behind", "versions_behind"}
	check := func(r row) {
		t.Helper()
		rs, _ := r.d.repl(t)
		if got := slices.Sorted(maps.Keys(rs)); !slices.Equal(got, r.keys) {
			t.Errorf("%s: repl keys\n got %v\nwant %v", r.name, got, r.keys)
		}
		if got := string(rs["role"]); got != fmt.Sprintf("%q", r.role) {
			t.Errorf("%s: role %s, want %q", r.name, got, r.role)
		}
		if got := string(rs["fenced"]) == "true"; got != r.fenced {
			t.Errorf("%s: repl fenced = %v, want %v (%v)", r.name, got, r.fenced, rs)
		}
		m := r.d.replMetrics(t)
		if got := slices.Sorted(maps.Keys(m)); !slices.Equal(got, r.metrics) {
			t.Errorf("%s: repl metrics\n got %v\nwant %v", r.name, got, r.metrics)
		}
		want := "ensemfdetd_repl_fenced 0"
		if r.fenced {
			want = "ensemfdetd_repl_fenced 1"
		}
		if got := m["ensemfdetd_repl_fenced"]; got != want {
			t.Errorf("%s: %q, want %q", r.name, got, want)
		}
	}
	primaryMetrics := slices.Sorted(slices.Values(append(slices.Clone(replMetricsCommon), replMetricsPrimary...)))
	followerMetrics := slices.Sorted(slices.Values(append(slices.Clone(replMetricsCommon), replMetricsFollower...)))

	check(row{"primary (owned)", primary, "primary", false,
		[]string{"bytes_shipped", "epoch", "files_shipped", "ready", "role", "seconds_behind",
			"tail_records", "tail_requests", "versions_behind"}, primaryMetrics})
	check(row{"memory-only follower", memFollower, "follower", false, follower, followerMetrics})
	check(row{"durable follower", node, "follower", false, follower, followerMetrics})

	if code, body := node.do(t, http.MethodPost, "/v1/admin/promote", "", nil); code != http.StatusOK {
		t.Fatalf("promote: %d %s", code, body)
	}
	check(row{"promoted node", node, "primary", false,
		[]string{"bytes_shipped", "epoch", "promotions", "ready", "role", "seconds_behind", "versions_behind"},
		primaryMetrics})

	// One replication request advertising a higher term fences each primary.
	if code, body := primary.do(t, http.MethodGet, "/v1/repl/manifest", "", map[string]string{"X-Repl-Epoch": "1"}); code != http.StatusOK {
		t.Fatalf("fencing manifest: %d %s", code, body)
	}
	check(row{"primary (fenced)", primary, "primary", true,
		[]string{"bytes_shipped", "epoch", "epoch_fences", "fenced", "files_shipped", "ready", "role",
			"seconds_behind", "tail_records", "tail_requests", "versions_behind"}, primaryMetrics})

	if code, body := node.do(t, http.MethodGet, "/v1/repl/manifest", "", map[string]string{"X-Repl-Epoch": "9"}); code != http.StatusOK {
		t.Fatalf("deposing manifest: %d %s", code, body)
	}
	if code, body := node.do(t, http.MethodPost, "/v1/edges", `{"edges":[[5,5]]}`, nil); code != http.StatusConflict {
		t.Fatalf("ingest on a deposed node: %d %s, want 409", code, body)
	}
	check(row{"deposed node", node, "primary", true,
		[]string{"bytes_shipped", "epoch", "epoch_fences", "fenced", "promotions", "ready", "role",
			"seconds_behind", "versions_behind"}, primaryMetrics})
}
