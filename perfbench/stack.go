package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"ensemfdet/internal/persist"
	"ensemfdet/internal/serve"
	"ensemfdet/internal/stream"
)

// stackConfig is the part of the daemon's command line a workload sets;
// every other flag keeps its default.
type stackConfig struct {
	load           string // -load: edge list ingested at start
	dataDir        string // -data-dir (with -fsync always); empty = memory-only
	windowMaxEdges int    // -window-max-edges; 0 = no window
	snapshotEvery  int64  // -snapshot-every; 0 = the default
}

func (c stackConfig) daemonArgs() []string {
	var a []string
	if c.load != "" {
		a = append(a, "-load", c.load)
	}
	if c.dataDir != "" {
		a = append(a, "-data-dir", c.dataDir, "-fsync", "always")
	}
	if c.windowMaxEdges > 0 {
		a = append(a, "-window-max-edges", strconv.Itoa(c.windowMaxEdges))
	}
	if c.snapshotEvery > 0 {
		a = append(a, "-snapshot-every", strconv.FormatInt(c.snapshotEvery, 10))
	}
	return a
}

// The daemon's flag defaults, which the in-process stack mirrors.
const (
	defMaxConcurrent = 2
	defCacheSize     = 32
	defIncDelta      = 0.25
	defIngestQueue   = 256
	defSnapshotBytes = 16 << 20
	defRetireEvery   = time.Second
)

// target is a running stack the workload drives over HTTP.
type target interface {
	URL() string
	PeakRSSMB() (float64, error)
	// Stop shuts down gracefully; Crash stops abruptly, leaving durable
	// state exactly as a killed process would.
	Stop()
	Crash()
}

// launcher starts a stack and returns once it answers /readyz.
type launcher func(ctx context.Context, cfg stackConfig, logPath string) (target, error)

type daemonTarget struct{ d *daemon }

func (t daemonTarget) URL() string                 { return t.d.url }
func (t daemonTarget) PeakRSSMB() (float64, error) { return t.d.peakRSSMB() }
func (t daemonTarget) Stop()                       { t.d.stop(15 * time.Second) }
func (t daemonTarget) Crash()                      { t.d.kill() }

// launchDaemon runs the real ensemfdetd binary in its own process.
func launchDaemon(bin string) launcher {
	return func(ctx context.Context, cfg stackConfig, logPath string) (target, error) {
		d, err := startDaemon(bin, logPath, cfg.daemonArgs()...)
		if err != nil {
			return nil, err
		}
		if err := waitReady(ctx, d.url, d.done, 60*time.Second); err != nil {
			d.kill()
			return nil, fmt.Errorf("%w (log: %s)", err, logPath)
		}
		return daemonTarget{d}, nil
	}
}

// inprocTarget is the daemon's stack assembled in this process from the
// packages' public constructors.
type inprocTarget struct {
	url        string
	srv        *http.Server
	engine     *serve.Engine
	graph      *stream.Graph
	store      *persist.Store
	stopRetire context.CancelFunc
	retireDone chan struct{}
}

func (t *inprocTarget) URL() string                 { return t.url }
func (t *inprocTarget) PeakRSSMB() (float64, error) { return vmHWM(os.Getpid()) }

func (t *inprocTarget) haltRetire() {
	t.stopRetire()
	<-t.retireDone
}

func (t *inprocTarget) Stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx) // a drain timeout only means connections were cut
	t.haltRetire()
	_ = t.engine.Close() // final snapshot; its failure does not affect measurements already taken
}

func (t *inprocTarget) Crash() {
	_ = t.srv.Close() // drops connections at once; the error is the listener's, already closing
	t.haltRetire()
	// The store is left open and unflushed, as a killed process leaves it.
}

// launchInProcess builds the daemon's stack in-process with its default
// options. With a tracer the stream graph, the journal and the HTTP handler
// are wrapped so each call into them is recorded as a span.
func launchInProcess(tr *tracer) launcher {
	return func(ctx context.Context, cfg stackConfig, _ string) (target, error) {
		sg := stream.NewSharded(0)
		window := stream.WindowPolicy{MaxEdges: cfg.windowMaxEdges}
		if window.Enabled() {
			sg.SetWindow(window)
		}
		var src serve.Snapshotter = sg
		var psrc persist.Source = sg
		if tr != nil {
			tg := &tracedGraph{g: sg, t: tr}
			src, psrc = tg, tg
		}
		t := &inprocTarget{graph: sg, retireDone: make(chan struct{})}
		if cfg.dataDir != "" {
			snapEvery := cfg.snapshotEvery
			if snapEvery == 0 {
				snapEvery = defSnapshotBytes
			}
			store, err := persist.Open(cfg.dataDir, persist.Options{Fsync: persist.FsyncAlways, SnapshotBytes: snapEvery})
			if err != nil {
				return nil, err
			}
			if _, err := store.Recover(sg); err != nil {
				return nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
			}
			var j stream.Journal = store
			if tr != nil {
				j = &tracedJournal{s: store, t: tr}
			}
			sg.SetJournal(j)
			store.SetSource(psrc)
			t.store = store
		}
		t.engine = serve.NewEngine(src, serve.Options{
			MaxConcurrent:            defMaxConcurrent,
			MaxCacheEntries:          defCacheSize,
			IncrementalMaxDeltaRatio: defIncDelta,
			IngestQueue:              defIngestQueue,
		})
		if t.store != nil {
			t.engine.AttachPersist(t.store)
		}
		if cfg.load != "" {
			edges, err := readEdgeFile(cfg.load)
			if err != nil {
				return nil, err
			}
			if _, err := t.engine.Ingest(edges); err != nil {
				return nil, fmt.Errorf("loading %s: %w", cfg.load, err)
			}
		}
		var h http.Handler = serve.NewHandlerWith(t.engine, serve.HandlerConfig{Version: "perfbench"})
		if tr != nil {
			h = traceHandler(tr, h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.url = "http://" + ln.Addr().String()
		t.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := t.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "in-process server: %v\n", err)
			}
		}()
		// The daemon's retire ticker, for the age bounds and as a backstop to
		// the engine's count-bound kicks.
		rctx, cancel := context.WithCancel(context.Background())
		t.stopRetire = cancel
		go func() {
			defer close(t.retireDone)
			if !window.Enabled() {
				return
			}
			tick := time.NewTicker(defRetireEvery)
			defer tick.Stop()
			for {
				select {
				case <-rctx.Done():
					return
				case <-tick.C:
					t.engine.RetireNow()
				}
			}
		}()
		return t, nil
	}
}
