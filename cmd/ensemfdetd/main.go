// Command ensemfdetd is the ENSEMFDET streaming detection daemon: a
// long-running HTTP service that ingests purchase edges incrementally and
// answers fraud-detection queries from cached ensemble votes.
//
// Usage:
//
//	ensemfdetd [-addr :8080] [-load transactions.tsv] [-shards 0] [-max-concurrent 2] [-cache-size 32]
//	           [-ingest-queue 256] [-pprof-addr ""]
//	           [-data-dir /var/lib/ensemfdetd] [-fsync always] [-snapshot-every 16777216]
//	           [-window-age 720h] [-window-versions 0] [-window-max-edges 0] [-retire-every 1s]
//	           [-serve-replication] [-follow http://primary:8080] [-max-ready-lag 8] [-version]
//
// The API (JSON unless noted):
//
//	POST /v1/edges   {"edges": [[u,v], ...]}            batched ingest
//	POST /v1/detect  {"t":40,"n":80,"s":0.1,            run/serve a detection
//	                  "sampler":"RES","seed":1}
//	GET  /v1/votes   ?n=&s=&sampler=&seed=&min=&top=    ranked vote counts
//	GET  /v1/stats                                      graph + cache + shard + build + persist + repl counters
//	GET  /metrics                                       the same, Prometheus text format
//	GET  /healthz                                       liveness
//	GET  /readyz                                        readiness (recovery done; follower lag within bound)
//	GET  /v1/repl/...                                   WAL shipping (only with -serve-replication)
//	POST /v1/admin/promote                              promote this follower to primary (durable followers)
//	POST /v1/admin/follow    {"primary": url}           re-point this follower at a new primary
//
// Detection results are cached per (graph version, config): sweeping the
// vote threshold T, re-querying, or ranking against an unchanged graph
// never re-runs the ensemble. Ingesting new (non-duplicate) edges bumps the
// graph version and naturally invalidates the cache.
//
// Ingest is sharded across -shards user-range partitions (0 picks a power
// of two near GOMAXPROCS) so concurrent producers scale across cores, and
// snapshots are built incrementally from per-shard deltas; /v1/stats and
// /metrics expose per-shard sizes and the delta-vs-full build counts. Shard
// count never affects detection results.
//
// With a window flag set the daemon serves a sliding window over the edge
// stream instead of growing forever: a background pass every -retire-every
// retires edges older than -window-age (wall clock) or -window-versions
// (ingest batches), and -window-max-edges caps the live set by retiring
// the oldest edges. Retired edges leave the dedup set — a re-observed
// purchase re-ingests with fresh recency — and /v1/stats gains a "window"
// section (ensemfdetd_window_* in /metrics).
//
// With -data-dir set the daemon is durable: every accepted ingest batch is
// framed into a checksummed write-ahead log (fsynced before the HTTP 200
// under -fsync always), edge retirements are framed as tombstone records in
// the same log, binary CSR snapshots recording the window watermark are
// written in the background once the log grows past -snapshot-every bytes,
// and a restart — graceful or kill -9 — recovers the same graph, version
// and watermark, truncating a torn WAL tail from a mid-write crash instead
// of refusing to start. No restart resurrects an expired edge.
//
// A durable daemon started with -serve-replication is a replication primary:
// it ships its snapshot and WAL to followers over GET /v1/repl/. A daemon
// started with -follow <primary-url> is a read-only follower: it bootstraps
// from the primary (or recovers locally, when -data-dir already holds
// state), then tails the primary's log continuously, applying every record
// at its exact version — its graph, and therefore its votes, are
// byte-identical to the primary's at every version. Followers reject writes
// with 403, report ready on /readyz only while within -max-ready-lag
// versions of the primary, and expose lag in /v1/stats and
// ensemfdetd_repl_* metrics.
//
// Failover is epoch-fenced. A durable follower can be promoted at runtime
// (POST /v1/admin/promote): it stops tailing, fsyncs the next epoch (term)
// number with write ownership, and starts accepting ingest and serving
// /v1/repl/ itself. Other followers are re-pointed at the new primary with
// POST /v1/admin/follow; the epoch machinery reconciles histories across the
// transition. Every replication exchange carries the epoch both ways, so a
// deposed primary that hears a higher term — from a follower's request, or
// from its own data dir on reboot — durably drops write ownership and
// rejects ingest with 409 naming the ruling epoch; it keeps serving reads
// and replication so the new primary's followers can still chain through a
// reboot. During the promote window the node reports not-ready on /readyz.
// See the README's Failover section for the runbook.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests for up to -drain seconds, then flushing a final snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/replicate"
	"ensemfdet/internal/serve"
	"ensemfdet/internal/stream"
)

// buildVersion is stamped at link time via
// -ldflags "-X main.buildVersion=v1.2.3"; an unstamped module-aware build
// falls back to the version embedded by the Go toolchain.
var buildVersion = "dev"

func versionString() string {
	if buildVersion != "dev" {
		return buildVersion
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return buildVersion
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		load     = flag.String("load", "", "optional edge-list file to ingest at startup")
		shards   = flag.Int("shards", 0, "ingest shard count, rounded up to a power of two (0 = near GOMAXPROCS)")
		maxConc  = flag.Int("max-concurrent", 2, "maximum concurrent ensemble runs")
		cacheCap = flag.Int("cache-size", 32, "maximum cached vote sets")
		incDelta = flag.Float64("incremental-max-delta", 0.25, "run detection incrementally when the ingest delta is at most this fraction of the graph's edges (negative = always cold)")
		maxNode  = flag.Uint("max-node-id", 0, "largest accepted node id (0 = default 2^26)")
		ingestQ  = flag.Int("ingest-queue", 256, "ingest admission queue: in-flight batches past this are shed with 429 (0 = unbounded)")
		pprofAdr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
		dataDir  = flag.String("data-dir", "", "durability directory (WAL + snapshots); empty = memory-only")
		fsync    = flag.String("fsync", "always", "WAL flush policy: always (ack after fsync) or never (OS page cache)")
		snapEvry = flag.Int64("snapshot-every", 16<<20, "WAL growth in bytes that triggers a background snapshot")
		winAge   = flag.Duration("window-age", 0, "retire edges older than this wall-clock age (0 = unbounded)")
		winVers  = flag.Uint64("window-versions", 0, "keep only the newest N ingest versions of edges (0 = unbounded)")
		winEdges = flag.Int("window-max-edges", 0, "cap live edges, retiring oldest ones past it (0 = unbounded)")
		retireEv = flag.Duration("retire-every", time.Second, "period of the window retire pass (only with a window flag set)")
		srvRepl  = flag.Bool("serve-replication", false, "serve the WAL-shipping endpoints under /v1/repl/ (requires -data-dir)")
		follow   = flag.String("follow", "", "run as a read-only follower of this primary URL")
		readyLag = flag.Uint64("max-ready-lag", 8, "follower /readyz fails while more than this many versions behind the primary")
		showVer  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println("ensemfdetd", versionString())
		return nil
	}
	if *maxNode > bipartite.MaxNodeID {
		return fmt.Errorf("-max-node-id %d exceeds the id space (max %d)", *maxNode, uint64(bipartite.MaxNodeID))
	}
	if *shards < 0 || *shards > stream.MaxShards {
		return fmt.Errorf("-shards %d out of range [0,%d]", *shards, stream.MaxShards)
	}
	if *ingestQ < 0 {
		return fmt.Errorf("-ingest-queue must be non-negative, got %d", *ingestQ)
	}
	fsyncPolicy, err := persist.ParseFsyncPolicy(*fsync)
	if err != nil {
		return err
	}
	if *snapEvry <= 0 {
		return fmt.Errorf("-snapshot-every must be positive, got %d", *snapEvry)
	}
	if *winAge < 0 || *winEdges < 0 {
		return fmt.Errorf("-window-age and -window-max-edges must be non-negative")
	}
	window := stream.WindowPolicy{MaxAge: *winAge, MaxVersions: *winVers, MaxEdges: *winEdges}
	if window.Enabled() && *retireEv <= 0 {
		return fmt.Errorf("-retire-every must be positive with a window set, got %v", *retireEv)
	}
	if *srvRepl && *dataDir == "" {
		return errors.New("-serve-replication requires -data-dir (the WAL and snapshots are what is shipped)")
	}
	if *follow != "" {
		// A follower's state is the primary's replicated history — flags that
		// would mutate it locally are wiring mistakes, not configurations.
		if *srvRepl {
			return errors.New("-follow and -serve-replication are mutually exclusive (cascading replication is not supported)")
		}
		if window.Enabled() {
			return errors.New("-follow is incompatible with window flags: expiry replicates from the primary as tombstones")
		}
		if *load != "" {
			return errors.New("-follow is incompatible with -load: a follower's edges come from its primary")
		}
	}

	// The signal context exists before any boot work so a SIGINT aborts even
	// a long follower bootstrap download.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	sg := stream.NewSharded(*shards)
	log.Printf("ingest sharding: %d shards", sg.NumShards())
	if window.Enabled() {
		// Install the policy before recovery: recovery replays explicit
		// tombstones and never re-evaluates the policy, so this only arms
		// the post-boot retire ticker.
		sg.SetWindow(window)
		log.Printf("window: age=%v versions=%d max-edges=%d (retire every %v)",
			*winAge, *winVers, *winEdges, *retireEv)
	}

	var store *persist.Store
	if *dataDir != "" {
		if *follow != "" && replicate.NeedsBootstrap(*dataDir) {
			// No usable local state: ship the primary's snapshot + WAL into
			// the data dir so the normal recovery below reproduces the
			// primary's durable state version-exactly.
			log.Printf("bootstrapping %s from %s", *dataDir, *follow)
			if err := replicate.DownloadInto(ctx, nil, *follow, *dataDir, log.Printf); err != nil {
				return err
			}
		}
		// Recover before installing the journal, so replayed batches are
		// not re-appended to the log they came from.
		store, err = persist.Open(*dataDir, persist.Options{
			Fsync:         fsyncPolicy,
			SnapshotBytes: *snapEvry,
		})
		if err != nil {
			return err
		}
		rec, err := store.Recover(sg)
		if err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
		log.Printf("recovered %s: snapshot version %d (%d edges), replayed %d WAL records (%d edges) → graph version %d (fsync=%s)",
			*dataDir, rec.SnapshotVersion, rec.SnapshotEdges, rec.ReplayedRecords, rec.ReplayedEdges, rec.Version, fsyncPolicy)
		if *follow == "" {
			// A follower journals replicated records itself at their explicit
			// primary versions; the graph-side journal hook would re-stamp
			// them with local versions.
			sg.SetJournal(store)
		}
		store.SetSource(sg)
	}

	engine := serve.NewEngine(sg, serve.Options{
		MaxConcurrent:            *maxConc,
		MaxCacheEntries:          *cacheCap,
		MaxNodeID:                uint32(*maxNode),
		IncrementalMaxDeltaRatio: *incDelta,
		IngestQueue:              *ingestQ,
	})
	if store != nil {
		engine.AttachPersist(store)
	}

	hcfg := serve.HandlerConfig{Version: versionString()}
	var (
		follower *replicate.Follower // memory-only follower: plain tailer
		node     *replicate.Node     // durable follower: failover-capable
	)
	switch {
	case *follow != "" && store != nil:
		// A durable follower runs under the failover node so it can be
		// promoted to primary (POST /v1/admin/promote) or re-pointed at a new
		// one (POST /v1/admin/follow) without a restart. The read-only guard,
		// readiness, and the replication surface all track the live role.
		node, err = replicate.NewNode(replicate.NodeConfig{
			Store:      store,
			Graph:      sg,
			MaxLag:     *readyLag,
			FlushCache: engine.FlushCache,
		})
		if err != nil {
			return err
		}
		if epoch, _, owned := store.Epoch(); owned && epoch > 0 {
			// A promoted primary that crashed and was restarted with its old
			// -follow flag: the fence fsync made the promotion durable, so the
			// node resumes the role it won rather than re-bootstrapping against
			// a primary it already deposed.
			log.Printf("store owns epoch %d: resuming as primary (ignoring -follow %s)", epoch, *follow)
			if err := node.BecomePrimary(); err != nil {
				return err
			}
		} else if err := node.Follow(ctx, *follow); err != nil {
			return err
		}
		hcfg.ReadOnly = func() bool { return node.Role() != "primary" }
		hcfg.PrimaryURL = node.PrimaryURL
		hcfg.Ready = node.Ready
		hcfg.Repl = node.ReplHandler()
		hcfg.Admin = node.AdminHandler()
		engine.AttachRepl(node.Stats)
	case *follow != "":
		// Memory-only follower: nothing durable to fence, so no failover
		// surface — just the tailer, seeded from the primary's snapshot.
		follower, err = replicate.NewFollower(replicate.FollowerConfig{
			Primary:    *follow,
			Graph:      sg,
			MaxLag:     *readyLag,
			FlushCache: engine.FlushCache,
		})
		if err != nil {
			return err
		}
		if err := follower.Bootstrap(ctx); err != nil {
			return fmt.Errorf("bootstrapping from %s: %w", *follow, err)
		}
		log.Printf("following %s from version %d", *follow, sg.Version())
		hcfg.ReadOnly = func() bool { return true }
		hcfg.PrimaryURL = func() string { return *follow }
		hcfg.Ready = follower.Ready
		engine.AttachRepl(follower.Stats)
	case *srvRepl:
		if epoch, _, owned := store.Epoch(); !owned {
			// The data dir says a higher term exists: this process was deposed
			// (or cloned from a deposed primary). It still serves reads and
			// replication, but every ingest will be refused with 409 — make
			// the operator's next step unmissable.
			log.Printf("WARNING: store is FENCED at epoch %d — a newer primary owns this timeline; "+
				"ingest is rejected. Restart with -follow <new-primary> to rejoin.", epoch)
		}
		primary := replicate.NewPrimary(replicate.PrimaryConfig{
			Store:   store,
			Version: sg.Version,
		})
		hcfg.Repl = primary.Handler()
		engine.AttachRepl(primary.Stats)
		log.Printf("serving replication under /v1/repl/")
	}

	if *load != "" {
		if err := loadEdges(engine, *load); err != nil {
			return err
		}
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: logRequests(serve.NewHandlerWith(engine, hcfg)),
		// ReadTimeout bounds the whole request read so a client trickling
		// a body cannot pin a goroutine forever; it does not limit handler
		// execution, so long cold detections are unaffected (WriteTimeout
		// stays off for the same reason).
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	var tailDone chan struct{}
	if follower != nil {
		tailDone = make(chan struct{})
		go func() {
			defer close(tailDone)
			follower.Run(ctx)
		}()
	}

	var retireDone chan struct{}
	if window.Enabled() {
		// The retire ticker enforces the age bounds (the engine itself kicks
		// an extra pass when ingest blows through a count bound). A journal
		// failure inside a pass degrades the store exactly like a failed
		// append — log it; the next covering snapshot heals it. The done
		// channel lets shutdown join an in-flight pass before closing the
		// persistence store: a retirement that commits after the final
		// snapshot cut with its tombstone refused by a closed WAL would
		// resurrect the expired edges on the next boot.
		retireDone = make(chan struct{})
		go func() {
			defer close(retireDone)
			t := time.NewTicker(*retireEv)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if res, ok := engine.RetireNow(); ok && res.Err != nil {
						log.Printf("retire pass at version %d: %v", res.Version, res.Err)
					}
				}
			}
		}()
	}

	var pprofSrv *http.Server
	if *pprofAdr != "" {
		// The profiler gets its own listener and mux so it is never reachable
		// through the public API address (which may be exposed) and so a stuck
		// profile stream cannot tie up an API connection slot. Registering the
		// handlers on a private mux — rather than importing for the
		// DefaultServeMux side effect — keeps the public mux clean even if
		// some future dependency serves DefaultServeMux.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAdr, Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("pprof listening on %s", *pprofAdr)
			if err := pprofSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				// Diagnostics must never take the daemon down; the API keeps
				// serving without the profiler.
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("ensemfdetd listening on %s", *addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if pprofSrv != nil {
		_ = pprofSrv.Shutdown(shutdownCtx) // best effort; a hung profile stream must not block the drain
	}
	// The server has drained; join the retire ticker and the replication
	// tailer (their context is already canceled, but an in-flight pass or
	// apply must land its record before the WAL closes), then flush a final
	// snapshot and close the WAL so the next boot recovers without replay.
	if retireDone != nil {
		<-retireDone
	}
	if tailDone != nil {
		<-tailDone
	}
	if node != nil {
		// The failover node owns its tail goroutine; Close cancels and joins
		// it for the same land-before-WAL-close reason as tailDone above.
		node.Close()
	}
	if err := engine.Close(); err != nil {
		return fmt.Errorf("flushing persistence: %w", err)
	}
	return <-errc
}

// loadEdges performs the startup ingest. It honours the same id bound as
// /v1/edges, enforced while parsing: a stray huge id would otherwise commit
// the reader itself to O(max_id) allocations. Raw edges go straight into
// the stream graph — it dedups and builds the CSR on first snapshot, so no
// throwaway graph is constructed here. Only id-bound failures carry the
// -max-node-id hint; a missing or malformed file is its own problem, and
// suggesting a bigger id budget for it would send the operator the wrong way.
func loadEdges(engine *serve.Engine, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	edges, err := bipartite.ReadEdgesMax(f, engine.MaxNodeID())
	if err == nil {
		r, ierr := engine.Ingest(edges)
		if ierr == nil {
			log.Printf("loaded %s: %d edges added, %d duplicates (version %d)", path, r.Added, r.Duplicates, r.Version)
			return nil
		}
		err = ierr
	}
	if errors.Is(err, bipartite.ErrIDRange) {
		return fmt.Errorf("%w (see -max-node-id)", err)
	}
	return err
}

// logRequests is a minimal access log; the daemon has no other middleware.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s %v", r.Method, r.URL.Path, time.Since(start).Round(time.Microsecond))
	})
}
