// Command perfbench is the repository's benchmark. It generates its inputs
// with internal/datagen from --seed, drives a real ensemfdetd — built from
// the tree under test and run in its own process — over loopback HTTP, checks
// the daemon's answers, and prints every end-to-end metric of the chosen
// workload. With --trace 1 it instead assembles the daemon's stack in this
// process from the packages' public constructors, wraps each layer boundary
// to record spans, and prints the per-layer metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload detect-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The lines before it print each figure under the workload's own metric
// name, with the percentile and sample count behind every quantile.
// spec.json holds the workloads' fixed sizes, rates and configs.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runsDir holds each run's data dirs and logs, relative to the checkout root
// the benchmark runs from.
const runsDir = ".bench_build/runs"

var workloads = map[string]func(*env, phaseOpts) (*phase, error){
	"detect-cold":  detectCold,
	"window-fresh": windowFresh,
}

func run() (int, error) {
	var (
		workload = flag.String("workload", "", "workload to run: detect-cold or window-fresh")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "measured duration of the run")
		trace    = flag.Int("trace", 0, "1: run the traced in-process stack and print per-layer metrics")
		daemon   = flag.String("daemon", "", "path of the ensemfdetd binary under test")
		rev      = flag.String("commit", "unknown", "source revision under test, for the environment row")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		return 1, err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return 1, fmt.Errorf("unknown workload %q", *workload)
	}
	if *daemon == "" && *trace == 0 {
		return 1, fmt.Errorf("-daemon is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(runsDir, fmt.Sprintf("%s-s%d-t%d-%d", *workload, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	logFile, err := os.Create(filepath.Join(dir, "bench.log"))
	if err != nil {
		return 1, err
	}
	defer logFile.Close()
	// The in-process stack logs through the standard logger, as the daemon
	// does; keep it out of the result stream.
	log.SetOutput(logFile)

	calib, err := calibrate()
	if err != nil {
		return 1, err
	}
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s commit=%s daemon_sha256=%s calib_svd_ms=%.3f\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		*rev, fileHash(*daemon), calib)

	e := &env{ctx: ctx, w: sp.Workloads[*workload], seed: *seed, dir: dir, hc: &http.Client{Timeout: 30 * time.Second}}
	var res result
	var problems []string
	if *trace == 0 {
		// The load generator allocates little once its inputs are built;
		// collecting rarely keeps its pauses out of the daemon's latencies.
		debug.SetGCPercent(400)
		p, err := fn(e, phaseOpts{launch: launchDaemon(*daemon), seconds: *seconds, setups: sp.Setups})
		if err != nil {
			return 1, err
		}
		printRows(*workload, p)
		problems = p.problems
		res = result{Attempted: p.attempted, Failed: p.failed, Metrics: endToEnd(p)}
	} else {
		// Untraced then traced, each for half the run, on the same
		// in-process stack: the difference is the tracing overhead.
		half := *seconds / 2
		ePlain, err := e.sub("plain")
		if err != nil {
			return 1, err
		}
		plain, err := fn(ePlain, phaseOpts{launch: launchInProcess(nil), seconds: half, setups: 1})
		if err != nil {
			return 1, err
		}
		eTraced, err := e.sub("traced")
		if err != nil {
			return 1, err
		}
		tr := newTracer()
		traced, err := fn(eTraced, phaseOpts{launch: launchInProcess(tr), seconds: half, setups: 1, tr: tr})
		if err != nil {
			return 1, err
		}
		printRows(*workload+" (traced)", traced)
		problems = append(plain.problems, traced.problems...)
		tracedP50, _ := traced.headline()
		plainP50, _ := plain.headline()
		overhead := 100 * (tracedP50/plainP50 - 1)
		layers := perLayer(traced, tr, calib, overhead)
		if err := printLayers(layers, sp.Layers); err != nil {
			return 1, err
		}
		res = result{Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed, Metrics: layers}
	}
	res.Correct = len(problems) == 0
	for _, pr := range problems {
		fmt.Println("check FAILED:", pr)
	}
	if res.Correct {
		os.RemoveAll(dir) // keep the logs and data of a failed run only
	}
	out, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// endToEnd maps a daemon phase onto the gated metric slots (spec.json
// "gated_slots").
func endToEnd(p *phase) map[string]metricOut {
	ok := 1.0
	if p.attempted > 0 {
		ok = 1 - float64(p.failed)/float64(p.attempted)
	}
	p50, tail := p.headline()
	return map[string]metricOut{
		"setup_s":     {p.setupS, "s"},
		"p50_ms":      {p50, "ms"},
		"tail_ms":     {tail, "ms"},
		"peak_rss_mb": {p.rssMB, "MB"},
		"ok_ratio":    {ok, "ratio"},
	}
}

func printRows(workload string, p *phase) {
	failedRatio := 0.0
	if p.attempted > 0 {
		failedRatio = float64(p.failed) / float64(p.attempted)
	}
	rows := append(p.rows,
		row{metric: "setup_s", value: p.setupS, unit: "s"},
		row{metric: "peak_rss_mb", value: p.rssMB, unit: "MB"},
		row{metric: "failed_ratio", value: failedRatio, unit: "ratio"})
	if len(p.genLate) > 0 {
		late := p.genLate.tail()
		rows = append(rows, row{metric: "gen_late_tail_ms", value: late.Value, unit: "ms", q: &late})
	}
	for _, r := range rows {
		detail := ""
		if r.q != nil {
			detail = fmt.Sprintf("  (p%s, n=%d)", pctLabel(r.q.P), r.q.N)
		}
		fmt.Printf("row %-16s %-28s %14.4f %-8s%s\n", workload, r.metric, r.value, r.unit, detail)
	}
}

// fileHash identifies the daemon binary under test, which a checkout without
// git history can still be told apart by.
func fileHash(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return "none"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unreadable"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// finite replaces a NaN or infinite value (no samples, or a zero base) by 0
// so the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func ratio(a, b float64) float64 { return finite(a / b) }

// perLayer computes every per-layer metric from the traced phase: counter
// deltas of /v1/stats across the measured phase, span statistics, and the
// stage replay.
func perLayer(p *phase, tr *tracer, calib, overhead float64) map[string]metricOut {
	b, a := p.before, p.after
	m := map[string]metricOut{}
	put := func(name string, v float64, unit string) { m[name] = metricOut{finite(v), unit} }
	q50 := func(s series) float64 { return s.p50().Value }
	qt := func(s series) float64 { return s.tail().Value }

	edges := tr.stats("serve.edges", p.from)
	detect := tr.stats("serve.detect", p.from)
	appendS := tr.stats("stream.append", p.from)
	snap := tr.stats("stream.snapshot", p.from)
	delta := tr.stats("stream.delta", p.from)
	pappend := tr.stats("persist.append", p.from)

	batches := float64(a.Ingest.Batches - b.Ingest.Batches)
	shed := float64(a.Ingest.Shed - b.Ingest.Shed)
	put("serve.edges.self_ms_p50", q50(edges.self), "ms")
	put("serve.ingest.shed_ratio", ratio(shed, batches+shed), "ratio")
	hits := float64(a.CacheHits - b.CacheHits)
	misses := float64(a.CacheMisses - b.CacheMisses)
	put("serve.cache.hit_ratio", ratio(hits, hits+misses), "ratio")
	inc := float64(a.Detect.IncrementalRuns - b.Detect.IncrementalRuns)
	cold := float64(a.Detect.ColdRuns - b.Detect.ColdRuns)
	put("serve.detect.incremental_ratio", ratio(inc, inc+cold), "ratio")
	put("serve.detect.fallbacks", float64(a.Detect.IncrementalFallbacks-b.Detect.IncrementalFallbacks), "count")

	put("stream.append.calls", float64(len(appendS.dur)), "count")
	put("stream.append.self_ms_p50", q50(appendS.self), "ms")
	put("stream.append.self_ms_tail", qt(appendS.self), "ms")
	put("stream.snapshot.calls", float64(len(snap.dur)), "count")
	put("stream.snapshot.ms_p50", q50(snap.dur), "ms")
	put("stream.snapshot.capture_ms_p50", q50(snap.capture), "ms")
	put("stream.snapshot.capture_ms_tail", qt(snap.capture), "ms")
	if a.Build != nil && b.Build != nil {
		dc := float64(a.Build.DeltaBuilds - b.Build.DeltaBuilds)
		fc := float64(a.Build.FullBuilds - b.Build.FullBuilds)
		put("stream.build.delta_count", dc, "count")
		put("stream.build.full_count", fc, "count")
		put("stream.build.delta_ms_mean", ratio(float64(a.Build.DeltaBuildDur-b.Build.DeltaBuildDur)/1e6, dc), "ms")
		put("stream.build.full_ms_mean", ratio(float64(a.Build.FullBuildDur-b.Build.FullBuildDur)/1e6, fc), "ms")
	}
	put("stream.delta.ms_p50", q50(delta.dur), "ms")
	var passes, retired, retireNs float64
	if a.Window != nil && b.Window != nil {
		passes = float64(a.Window.RetirePasses - b.Window.RetirePasses)
		retired = float64(a.Window.RetiredEdges - b.Window.RetiredEdges)
		retireNs = float64(a.Window.RetireDur - b.Window.RetireDur)
	}
	put("stream.retire.passes", passes, "count")
	put("stream.retire.ms_mean", ratio(retireNs/1e6, passes), "ms")
	put("stream.retire.edges_per_pass", ratio(retired, passes), "edges")

	put("persist.append.ms_p50", q50(pappend.dur), "ms")
	put("persist.append.ms_tail", qt(pappend.dur), "ms")
	var records, walBytes, fsyncs, snaps, snapNs, tombs float64
	if a.Persist != nil && b.Persist != nil {
		records = float64(a.Persist.AppendedRecords - b.Persist.AppendedRecords)
		walBytes = float64(a.Persist.AppendedBytes - b.Persist.AppendedBytes)
		fsyncs = float64(a.Persist.Fsyncs - b.Persist.Fsyncs)
		snaps = float64(a.Persist.SnapshotsWritten - b.Persist.SnapshotsWritten)
		snapNs = float64(a.Persist.SnapshotDur - b.Persist.SnapshotDur)
		tombs = float64(a.Persist.TombstoneRecords - b.Persist.TombstoneRecords)
	}
	added := float64(a.Ingest.Added - b.Ingest.Added)
	put("persist.fsyncs_per_batch", ratio(fsyncs, records), "ratio")
	put("persist.wal_bytes_per_edge", ratio(walBytes, added), "B/edge")
	put("persist.snapshot.count", snaps, "count")
	put("persist.snapshot.ms_mean", ratio(snapNs/1e6, snaps), "ms")
	put("persist.tombstones", tombs, "count")
	put("persist.recover.ms", p.recoverMS, "ms")
	put("persist.recover.replayed_records", float64(p.replayed), "count")

	// core: the detect handler span minus its stream children (snapshot
	// capture and build, delta lookup).
	runs := float64(a.EnsembleRuns - b.EnsembleRuns)
	reused := float64(a.Detect.SamplesReused - b.Detect.SamplesReused)
	rerun := float64(a.Detect.SamplesRerun - b.Detect.SamplesRerun)
	put("core.detect.self_ms_p50", q50(detect.self), "ms")
	put("core.peel_rounds_per_detect", ratio(float64(a.Detect.PeelRounds-b.Detect.PeelRounds), runs), "rounds")
	put("core.samples_rerun_per_detect", ratio(rerun, runs), "samples")
	put("core.reuse_ratio", ratio(reused, reused+rerun), "ratio")
	if r := p.replay; r != nil {
		n := float64(r.samples)
		put("core.parallel_eff", r.parallelEff(), "ratio")
		put("sampling.sample_ms_mean", r.sampleMS/n, "ms")
		put("sampling.subgraph_edges_mean", float64(r.subgraphEdges)/n, "edges")
		put("fdet.peel_ms_mean", r.peelMS/n, "ms")
		put("fdet.rounds_mean", float64(r.rounds)/n, "rounds")
		put("fdet.kept_ratio", ratio(float64(r.kept), float64(r.rounds)), "ratio")
		if int64(r.rounds) != r.runRounds {
			fmt.Printf("note: stage replay peeled %d rounds, core.Run %d — the replay no longer draws core's samples\n", r.rounds, r.runRounds)
		}
	}
	put("bench.gen_late_ms_tail", qt(p.genLate), "ms")
	put("bench.calib_ms", calib, "ms")
	put("bench.trace_overhead_pct", overhead, "%")

	return m
}

// printLayers prints the per-layer metrics in spec.json's order, each with
// the end-to-end figure it should move, and fails if the computed set and
// the spec's map have drifted apart.
func printLayers(m map[string]metricOut, layers []layerSpec) error {
	if len(m) != len(layers) {
		return fmt.Errorf("computed %d per-layer metrics, spec.json maps %d", len(m), len(layers))
	}
	for _, l := range layers {
		v, ok := m[l.Metric]
		if !ok {
			return fmt.Errorf("spec.json maps %s, which is not computed", l.Metric)
		}
		fmt.Printf("layer %-34s %14.4f %-8s -> %s on %s\n", l.Metric, v.Value, v.Unit, l.Moves, l.On)
	}
	return nil
}
