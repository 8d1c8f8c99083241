package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/eval"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/stream"
)

// row is one printed end-to-end figure, named as the workload's own metric.
type row struct {
	metric string
	value  float64
	unit   string
	q      *quantile // set for latency quantiles, to print p and n
}

// env is what every workload run shares.
type env struct {
	ctx  context.Context
	w    workloadSpec
	seed int64
	dir  string // scratch directory for this run
	hc   *http.Client
}

// sub is e with its own scratch directory, so two phases of one run never
// share a data dir.
func (e *env) sub(name string) (*env, error) {
	c := *e
	c.dir = filepath.Join(e.dir, name)
	return &c, os.MkdirAll(c.dir, 0o755)
}

// phaseOpts selects how a workload phase runs.
type phaseOpts struct {
	launch  launcher
	seconds float64
	setups  int
	tr      *tracer // nil when untraced
}

func (po phaseOpts) dur() time.Duration { return time.Duration(po.seconds * float64(time.Second)) }

// phase is one measured run of a workload.
type phase struct {
	setupS    float64
	head      series // the workload's headline latency
	rows      []row
	rssMB     float64
	attempted int64
	failed    int64
	problems  []string // failed correctness checks
	before    daemonStats
	after     daemonStats
	from      time.Time // start of the measured phase
	genLate   series
	replay    *replayStats
	recoverMS float64 // traced runs: the store's in-process Open+Recover time after a crash
	replayed  int     // and the WAL records that recovery replayed
}

func (p *phase) check(ok bool, format string, args ...any) {
	if !ok {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

// gatedTailP is the percentile of the gated tail_ms metric: the highest one
// every workload's sample count supports with ten samples beyond it. The
// rule-based tail of each latency is printed in the rows.
const gatedTailP = 0.9

// headline returns the workload's headline median and gated tail.
func (p *phase) headline() (p50, tail float64) {
	sorted := p.head.sorted()
	return nearestRank(sorted, 0.5).Value, nearestRank(sorted, gatedTailP).Value
}

func (p *phase) addLatencyRows(prefix string, s series) {
	p50, tl := s.p50(), s.tail()
	p.rows = append(p.rows,
		row{metric: prefix + "_p50_ms", value: p50.Value, unit: "ms", q: &p50},
		row{metric: prefix + "_tail_ms", value: tl.Value, unit: "ms", q: &tl})
}

// launchTimed starts one stack and completes its warm-up — exec, load,
// readiness and one warm-up request of each kind — returning the set-up time.
func (e *env) launchTimed(po phaseOpts, cfg stackConfig, logName string, warm func(target) error) (target, float64, error) {
	start := time.Now()
	t, err := po.launch(e.ctx, cfg, filepath.Join(e.dir, logName))
	if err != nil {
		return nil, 0, err
	}
	if err := warm(t); err != nil {
		t.Crash()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return t, time.Since(start).Seconds(), nil
}

// finish records the end-of-phase counters and peak memory, then runs the
// traced stage replay while the stack is still up.
func (e *env) finish(p *phase, t target, po phaseOpts) error {
	var err error
	if p.after, err = fetchStats(e.ctx, e.hc, t.URL()); err != nil {
		return err
	}
	if p.rssMB, err = t.PeakRSSMB(); err != nil {
		return fmt.Errorf("reading peak RSS: %w", err)
	}
	if po.tr != nil {
		g, _ := t.(*inprocTarget).graph.Snapshot()
		if p.replay, err = stageReplay(g, *e.w.Detect, e.seed); err != nil {
			return err
		}
	}
	return nil
}

// detectSeed is the seed of the i-th measured detect request: distinct per
// request and per benchmark seed, so no request hits the vote cache.
func detectSeed(seed int64, i int) int64 { return seed*1_000_000 + int64(i) }

// segmentSeed is the dataset seed of segment k of a run. A run spreads its
// measured time over po.setups segments, each on its own generated graph, so
// one graph's peculiarities weigh less in the run's figures.
func segmentSeed(seed int64, k int) int64 { return seed*16 + int64(k) }

// detectCold: a static preloaded graph and one closed-loop client sending
// cold detects, repeated over a few independently generated graphs.
func detectCold(e *env, po phaseOpts) (*phase, error) {
	p := &phase{}
	var setups, rss []float64
	var f1Sum float64
	f1N := 0
	segDur := po.dur() / time.Duration(po.setups)
	for k := 0; k < po.setups; k++ {
		segSeed := segmentSeed(e.seed, k)
		ds, err := genPreset(e.w.Dataset.Preset, e.w.Dataset.Scale, segSeed)
		if err != nil {
			return nil, err
		}
		graphPath := filepath.Join(e.dir, fmt.Sprintf("graph-%d.tsv", k))
		if err := writeEdgeFile(graphPath, ds.Graph.EdgeList()); err != nil {
			return nil, err
		}
		dc := *e.w.Detect
		t, setupS, err := e.launchTimed(po, stackConfig{load: graphPath}, fmt.Sprintf("daemon-%d.log", k), func(t target) error {
			c := newClient(t.URL(), 1)
			defer c.close()
			if _, ok := c.detect(e.ctx, dc, detectSeed(segSeed, 999_999)); !ok {
				return fmt.Errorf("warm-up detect failed")
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupS)
		type answer struct {
			seed int64
			resp detectResp
		}
		var first, last *answer
		err = func() error {
			defer t.Stop()
			var err error
			if p.before, err = fetchStats(e.ctx, e.hc, t.URL()); err != nil {
				return err
			}
			c := newClient(t.URL(), 1)
			defer c.close()
			p.from = time.Now()
			for i := 0; time.Since(p.from) < segDur; i++ {
				s := detectSeed(segSeed, i)
				start := time.Now()
				resp, ok := c.detect(e.ctx, dc, s)
				p.attempted++
				if !ok {
					p.failed++
					p.head.add(max(requestTimeout, time.Since(start)))
					continue
				}
				p.head.add(time.Since(start))
				f1Sum += eval.Evaluate(ds.Labels, resp.Users).F1
				f1N++
				a := &answer{seed: s, resp: resp}
				if first == nil {
					first = a
				}
				last = a
			}
			if err := e.finish(p, t, po); err != nil {
				return err
			}
			rss = append(rss, p.rssMB)
			return nil
		}()
		if err != nil {
			return nil, err
		}
		p.check(first != nil, "segment %d: no detect succeeded", k)
		if first == nil {
			continue
		}
		// Votes are byte-identical by contract: the daemon's answers must
		// equal an in-process core.Run on the same loaded edge list.
		edges, err := readEdgeFile(graphPath)
		if err != nil {
			return nil, err
		}
		sg := stream.New()
		sg.Append(edges)
		g, _ := sg.Snapshot()
		for _, a := range []*answer{first, last} {
			users, merchants, err := referenceDetect(g, dc, a.seed)
			if err != nil {
				return nil, err
			}
			p.check(slices.Equal(users, a.resp.Users) && slices.Equal(merchants, a.resp.Merchants),
				"detect seed %d: daemon returned %d users/%d merchants, core.Run %d/%d",
				a.seed, len(a.resp.Users), len(a.resp.Merchants), len(users), len(merchants))
		}
	}
	p.setupS, p.rssMB = median(setups), median(rss)
	p.addLatencyRows("detect", p.head)
	if f1N > 0 {
		p.rows = append(p.rows, row{metric: "detect_f1", value: f1Sum / float64(f1N), unit: "ratio"})
	}
	return p, nil
}

// referenceDetect runs the ensemble in-process with a detect request's
// config and applies its threshold.
func referenceDetect(g *bipartite.Graph, dc detectConfig, seed int64) ([]uint32, []uint32, error) {
	m, err := sampling.ByName(dc.Sampler)
	if err != nil {
		return nil, nil, err
	}
	out, err := core.Run(g, core.Config{Method: m, NumSamples: dc.N, SampleRatio: dc.S, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	return out.Votes.AcceptUsers(dc.T), out.Votes.AcceptMerchants(dc.T), nil
}

// ackedBatch is an ingest batch the daemon acknowledged.
type ackedBatch struct {
	edges   []bipartite.Edge
	version uint64
}

// crashRecover follows a crash of the stack whose durable state restart
// names: it restarts on the same data dir — timing exec to /readyz as
// recover_s, or, in-process, timing the store's Open and Recover — and
// checks that the recovered graph is at or past the last acknowledged
// version with every acknowledged edge present.
func (e *env) crashRecover(p *phase, po phaseOpts, restart stackConfig, acked []ackedBatch, lastAck uint64) error {
	var recovered *stream.Graph
	if po.tr == nil {
		start := time.Now()
		t, err := po.launch(e.ctx, restart, filepath.Join(e.dir, "daemon-restart.log"))
		if err != nil {
			return fmt.Errorf("restarting after SIGKILL: %w", err)
		}
		p.rows = append(p.rows, row{metric: "recover_s", value: time.Since(start).Seconds(), unit: "s"})
		st, err := fetchStats(e.ctx, e.hc, t.URL())
		t.Stop()
		if err != nil {
			return err
		}
		p.check(st.Graph.Version >= lastAck, "recovered version %d < last acked %d", st.Graph.Version, lastAck)
		if recovered, _, err = recoverDir(restart.dataDir); err != nil {
			return err
		}
	} else {
		start := time.Now()
		g, rec, err := recoverDir(restart.dataDir)
		if err != nil {
			return err
		}
		recovered = g
		p.recoverMS = float64(time.Since(start)) / float64(time.Millisecond)
		p.replayed = rec.ReplayedRecords
		p.check(rec.Version >= lastAck, "recovered version %d < last acked %d", rec.Version, lastAck)
	}
	g, _ := recovered.Snapshot()
	missing := 0
	for _, b := range acked {
		for _, ed := range b.edges {
			if int(ed.U) >= g.NumUsers() || int(ed.V) >= g.NumMerchants() || !g.HasEdge(ed.U, ed.V) {
				missing++
			}
		}
	}
	p.check(missing == 0, "%d acknowledged edges missing after recovery", missing)
	p.check(len(acked) > 0, "no ingest batch was acknowledged")
	return nil
}

// recoverDir recovers a data dir into a fresh graph, as a restart would. A
// crashed in-process store may still be finishing a background snapshot, so
// a failed attempt is retried once it has had time to land.
func recoverDir(dir string) (*stream.Graph, persist.RecoveryStats, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		st, err := persist.Open(dir, persist.Options{Fsync: persist.FsyncNever})
		if err != nil {
			lastErr = err
			continue
		}
		g := stream.New()
		rec, err := st.Recover(g)
		st.SetSource(nil)
		if cerr := st.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err == nil {
			return g, rec, nil
		}
		lastErr = err
	}
	return nil, persist.RecoveryStats{}, fmt.Errorf("recovering %s: %w", dir, lastErr)
}

// pollAnswer is one completed detect poll.
type pollAnswer struct {
	done    time.Time
	version uint64
}

// windowFresh: a preloaded graph under a sliding window the size of the
// graph, with open-loop small batches beside a closed-loop detect poller,
// repeated over a few independently generated graphs.
func windowFresh(e *env, po phaseOpts) (*phase, error) {
	p := &phase{}
	var setups, rss []float64
	var detectLat, ingestLat series
	segDur := po.dur() / time.Duration(po.setups)
	for k := 0; k < po.setups; k++ {
		setupS, err := e.freshSegment(p, po, k, segDur, k == po.setups-1, &detectLat, &ingestLat)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setupS)
		rss = append(rss, p.rssMB)
	}
	p.setupS, p.rssMB = median(setups), median(rss)
	p.addLatencyRows("fresh", p.head)
	p.addLatencyRows("detect", detectLat)
	p.addLatencyRows("ingest", ingestLat)
	p.check(len(p.head) > 0, "no batch's freshness was observed")
	return p, nil
}

// freshSegment runs one window-fresh segment on its own graph, appending its
// samples to p and the two latency series. The last segment ends in a crash
// and recovery. It returns the set-up time.
func (e *env) freshSegment(p *phase, po phaseOpts, k int, dur time.Duration, crash bool, detectLat, ingestLat *series) (float64, error) {
	segSeed := segmentSeed(e.seed, k)
	ds, err := genPreset(e.w.Dataset.Preset, e.w.Dataset.Scale, segSeed)
	if err != nil {
		return 0, err
	}
	edges := ds.Graph.EdgeList()
	graphPath := filepath.Join(e.dir, fmt.Sprintf("graph-%d.tsv", k))
	if err := writeEdgeFile(graphPath, edges); err != nil {
		return 0, err
	}
	src := newFreshStream(uint32(ds.Graph.NumUsers()), ds.Graph.NumMerchants(), e.w.MerchantZipfS, segSeed)
	dc := *e.w.Detect
	cfg := stackConfig{load: graphPath, dataDir: filepath.Join(e.dir, fmt.Sprintf("data-%d", k)),
		windowMaxEdges: len(edges), snapshotEvery: e.w.SnapshotEvery}
	t, setupS, err := e.launchTimed(po, cfg, fmt.Sprintf("daemon-%d.log", k), func(t target) error {
		c := newClient(t.URL(), 1)
		defer c.close()
		if _, ok := c.ingest(e.ctx, encodeEdges(src.next(e.w.BatchEdges))); !ok {
			return fmt.Errorf("warm-up ingest failed")
		}
		if _, ok := c.detect(e.ctx, dc, segSeed); !ok {
			return fmt.Errorf("warm-up detect failed")
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	running := true
	defer func() {
		if running {
			t.Stop()
		}
	}()
	if p.before, err = fetchStats(e.ctx, e.hc, t.URL()); err != nil {
		return 0, err
	}
	ic := newClient(t.URL(), e.w.Connections)
	defer ic.close()
	dcl := newClient(t.URL(), 1)
	defer dcl.close()

	p.from = time.Now()
	due := dueTimes(p.from.Add(10*time.Millisecond), e.w.Rate, dur)
	batches := make([][]bipartite.Edge, len(due))
	bodies := make([][]byte, len(due))
	for i := range due {
		batches[i] = src.next(e.w.BatchEdges)
		bodies[i] = encodeEdges(batches[i])
	}
	acks := make([]ingestAck, len(due))
	var res loopResult
	ingestDone := make(chan struct{})
	go func() {
		defer close(ingestDone)
		res = runOpenLoop(e.ctx, due, e.w.Connections, due[len(due)-1].Add(30*time.Second),
			func(ctx context.Context, i int) bool {
				a, ok := ic.ingest(ctx, bodies[i])
				acks[i] = a
				return ok
			})
	}()
	// The poller runs until ingest has finished and one poll has started
	// after that, so the last batches' freshness is observable.
	var polls []pollAnswer
	monotone := true
	for finished := false; !finished; {
		select {
		case <-ingestDone:
			finished = true
		default:
		}
		start := time.Now()
		resp, ok := dcl.detect(e.ctx, dc, segSeed)
		p.attempted++
		if !ok {
			p.failed++
			detectLat.add(max(requestTimeout, time.Since(start)))
			continue
		}
		now := time.Now()
		detectLat.add(now.Sub(start))
		if n := len(polls); n > 0 && resp.GraphVersion < polls[n-1].version {
			monotone = false
		}
		polls = append(polls, pollAnswer{done: now, version: resp.GraphVersion})
	}

	lat, failed := latencies(res.Outcomes, requestTimeout)
	*ingestLat = append(*ingestLat, lat...)
	p.genLate = append(p.genLate, res.GenLate...)
	p.attempted += int64(len(due))
	p.failed += int64(failed)
	p.head = append(p.head, freshness(res.Outcomes, acks, polls)...)
	p.check(monotone, "segment %d: a detect response's graph_version went backwards", k)
	if n := ic.status5xx.Load() + dcl.status5xx.Load(); n > 0 {
		p.check(false, "segment %d: %d 5xx responses", k, n)
	}
	if err := e.finish(p, t, po); err != nil || !crash {
		return setupS, err
	}
	var acked []ackedBatch
	var lastAck uint64
	for i, o := range res.Outcomes {
		if o.OK {
			acked = append(acked, ackedBatch{edges: batches[i], version: acks[i].Version})
			lastAck = max(lastAck, acks[i].Version)
		}
	}
	// The window retires the oldest edges first — the loaded ones — so every
	// batch acknowledged here is still live and must survive the crash.
	t.Crash()
	running = false
	restart := cfg
	restart.load = ""
	return setupS, e.crashRecover(p, po, restart, acked, lastAck)
}

// freshness is, per acknowledged batch, the time from its due time to the
// completion of the first detect response whose graph_version covers the
// batch's acknowledged version. Batches no poll covered are left out.
func freshness(outs []outcome, acks []ingestAck, polls []pollAnswer) series {
	var s series
	for i, o := range outs {
		if !o.OK {
			continue
		}
		v := acks[i].Version
		// Poll versions never decrease, so the first covering poll is found
		// by binary search.
		j := sort.Search(len(polls), func(k int) bool { return polls[k].version >= v })
		if j == len(polls) {
			continue
		}
		s.add(polls[j].done.Sub(o.Due))
	}
	return s
}
