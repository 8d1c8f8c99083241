package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one ensemfdetd process under test. Its log — the per-request
// access log included — goes to a file: a pipe nobody drained would
// eventually block the daemon's writes.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been reaped
}

// startDaemon execs bin with args plus a fresh loopback -addr, logging to
// logPath. It does not wait for readiness.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening daemon log: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The daemon must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon is expected to be non-zero
		lf.Close()
		close(d.done)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("finding a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls GET /readyz until it answers 200, the process exits, or
// timeout passes.
func waitReady(ctx context.Context, url string, exited <-chan struct{}, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return errors.New("daemon exited before becoming ready")
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon not ready after %v", timeout)
		}
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited; we wait either way
	<-d.done
}

// stop asks for a graceful shutdown and waits for it, killing the process
// if it has not exited within the grace period.
func (d *daemon) stop(grace time.Duration) {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; we wait either way
	select {
	case <-d.done:
	case <-time.After(grace):
		d.kill()
	}
}

// peakRSSMB reads the process's VmHWM (peak resident set) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(d.cmd.Process.Pid)
}

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// daemonStats is the slice of GET /v1/stats the benchmark reads. Counters are
// cumulative; the measured phase's figures are differences of two reads.
type daemonStats struct {
	Graph struct {
		Version uint64 `json:"version"`
	} `json:"graph"`
	Build *struct {
		DeltaBuilds   uint64 `json:"delta_builds"`
		FullBuilds    uint64 `json:"full_builds"`
		DeltaBuildDur int64  `json:"delta_build_ns"`
		FullBuildDur  int64  `json:"full_build_ns"`
	} `json:"build"`
	Window *struct {
		RetiredEdges uint64 `json:"retired_edges"`
		RetirePasses uint64 `json:"retire_passes"`
		RetireDur    int64  `json:"retire_ns"`
	} `json:"window"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	EnsembleRuns uint64 `json:"ensemble_runs"`
	Detect       struct {
		IncrementalRuns      uint64 `json:"incremental_runs"`
		ColdRuns             uint64 `json:"cold_runs"`
		IncrementalFallbacks uint64 `json:"incremental_fallbacks"`
		SamplesReused        uint64 `json:"samples_reused"`
		SamplesRerun         uint64 `json:"samples_rerun"`
		PeelRounds           uint64 `json:"peel_rounds"`
	} `json:"detect"`
	Ingest struct {
		Batches uint64 `json:"batches"`
		Added   uint64 `json:"added"`
		Shed    uint64 `json:"shed"`
	} `json:"ingest"`
	Persist *struct {
		AppendedRecords  uint64 `json:"appended_records"`
		AppendedBytes    uint64 `json:"appended_bytes"`
		TombstoneRecords uint64 `json:"tombstone_records"`
		Fsyncs           uint64 `json:"fsyncs"`
		SnapshotsWritten uint64 `json:"snapshots_written"`
		SnapshotDur      int64  `json:"snapshot_ns"`
	} `json:"persist"`
}

func fetchStats(ctx context.Context, c *http.Client, url string) (daemonStats, error) {
	var st daemonStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return st, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, fmt.Errorf("GET /v1/stats: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	return st, nil
}
