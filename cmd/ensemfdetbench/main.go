// Command ensemfdetbench is a load harness for a live ensemfdetd: it soaks
// the daemon with concurrent edge ingest over a configurable id space
// (millions of distinct users) while issuing detections on a fixed cadence,
// and reports exact latency quantiles for both paths.
//
// Usage:
//
//	ensemfdetbench -addr http://127.0.0.1:8080 [-duration 60s]
//	               [-users 1000000] [-merchants 100000]
//	               [-ingest-workers 8] [-batch 256]
//	               [-detect-every 500ms] [-detect-n 16] [-detect-s 0.1] [-sampler RES] [-seed 1]
//	               [-out soak.json] [-bench]
//
// Ingest workers draw edges from a single global sequence: batch b covers
// user ids seq..seq+batch-1 modulo -users, so a run whose acknowledged
// batches span at least -users edges has touched every distinct user id —
// coverage is arithmetic, not probabilistic, and distinct_users counts
// acknowledged batches only. Merchant ids are a multiplicative hash of the
// sequence number, spreading edges across the merchant side without
// coordination.
//
// The harness speaks the daemon's backpressure contract: a 429 (admission
// queue full) is counted as shed — never as an error — and the worker backs
// off for the Retry-After hint (1 s without one), then resends the same
// batch, so a shed batch is delayed, never skipped. 5xx responses are
// counted separately as daemon faults and resent the same way.
//
// Latencies are recorded per request and the quantiles computed exactly
// (sort, nearest rank) rather than through a sketch: a soak's sample counts
// are small enough that exactness is free, and p999 on an estimator is
// exactly the number one should not trust. Each path reports its sample
// count, and p999 is null below 1000 samples, where it would be the maximum.
//
// Output is a JSON summary (stdout, or -out file). With -bench the summary
// is followed by go-bench-formatted lines (one metric per line) so the
// numbers can be committed to a BENCH_*.json baseline and diffed with
// benchstat like any other benchmark.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ensemfdetbench:", err)
		os.Exit(1)
	}
}

// summary is the machine-readable result. All latency fields are
// milliseconds; NaN (no samples) marshals as null via the jsonMS wrapper.
type summary struct {
	DurationSeconds float64      `json:"duration_seconds"`
	Users           int64        `json:"users"`
	DistinctUsers   int64        `json:"distinct_users"`
	Ingest          pathSummary  `json:"ingest"`
	Detect          pathSummary  `json:"detect"`
	EdgesSent       int64        `json:"edges_sent"`
	EdgesPerSecond  float64      `json:"edges_per_second"`
	FinalStats      *daemonStats `json:"daemon,omitempty"`
}

type pathSummary struct {
	Requests int64  `json:"requests"`
	Shed429  int64  `json:"shed_429"`
	Errors   int64  `json:"errors"`  // 5xx, other non-429 rejections, transport failures
	Samples  int    `json:"samples"` // latencies the quantiles rest on
	P50Ms    jsonMS `json:"p50_ms"`
	P99Ms    jsonMS `json:"p99_ms"`
	P999Ms   jsonMS `json:"p999_ms"`
	MaxMs    jsonMS `json:"max_ms"`
}

// jsonMS is a float64 that marshals NaN as null instead of failing, so an
// empty latency series (e.g. a detect cadence longer than the soak) does not
// abort the report.
type jsonMS float64

func (v jsonMS) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return []byte(strconv.FormatFloat(f, 'f', 3, 64)), nil
}

// daemonStats is the slice of the daemon's /v1/stats the soak report quotes
// back: enough to cross-check the client-side counts against the server's.
type daemonStats struct {
	Ingest struct {
		Batches    uint64 `json:"batches"`
		Added      uint64 `json:"added"`
		Shed       uint64 `json:"shed"`
		QueueDepth int    `json:"queue_depth"`
		QueueBound int    `json:"queue_bound"`
	} `json:"ingest"`
	Graph struct {
		NumUsers     int `json:"num_users"`
		NumMerchants int `json:"num_merchants"`
		NumEdges     int `json:"num_edges"`
	} `json:"graph"`
	Detect struct {
		PeelRounds uint64 `json:"peel_rounds"`
	} `json:"detect"`
}

// recorder accumulates one path's latencies and counts. Each worker owns a
// private slice (no lock on the hot path); merge() glues them for the final
// exact quantiles.
type recorder struct {
	requests atomic.Int64
	shed     atomic.Int64
	errors   atomic.Int64

	mu     sync.Mutex
	merged []time.Duration
}

func (r *recorder) donate(lat []time.Duration) {
	r.mu.Lock()
	r.merged = append(r.merged, lat...)
	r.mu.Unlock()
}

func (r *recorder) summarize() pathSummary {
	r.mu.Lock()
	lat := r.merged
	r.mu.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p999 := jsonMS(math.NaN())
	if len(lat) >= minP999Samples {
		p999 = quantileMs(lat, 0.999)
	}
	return pathSummary{
		Requests: r.requests.Load(),
		Shed429:  r.shed.Load(),
		Errors:   r.errors.Load(),
		Samples:  len(lat),
		P50Ms:    quantileMs(lat, 0.50),
		P99Ms:    quantileMs(lat, 0.99),
		P999Ms:   p999,
		MaxMs:    quantileMs(lat, 1),
	}
}

// minP999Samples is the sample count below which p999 is withheld: with
// fewer than 1000 samples the nearest-rank p999 is just the maximum.
const minP999Samples = 1000

// quantileMs returns the nearest-rank p-quantile of sorted latencies in
// milliseconds: the smallest sample with at least ceil(p·n) samples at or
// below it, NaN (null in JSON) with no samples. The epsilon keeps products
// such as 0.99·1000 from rounding up past the exact rank.
func quantileMs(sorted []time.Duration, p float64) jsonMS {
	n := len(sorted)
	if n == 0 {
		return jsonMS(math.NaN())
	}
	i := min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n) - 1
	return jsonMS(float64(sorted[i]) / float64(time.Millisecond))
}

func run() error {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "base URL of the ensemfdetd under test")
		duration  = flag.Duration("duration", 60*time.Second, "soak length")
		users     = flag.Int64("users", 1_000_000, "distinct user id space (sequential coverage)")
		merchants = flag.Int64("merchants", 100_000, "merchant id space")
		workers   = flag.Int("ingest-workers", 8, "concurrent ingest workers")
		batch     = flag.Int("batch", 256, "edges per ingest batch")
		detectEv  = flag.Duration("detect-every", 500*time.Millisecond, "detect cadence (0 = no detects)")
		detectN   = flag.Int("detect-n", 16, "detect: ensemble size")
		detectS   = flag.Float64("detect-s", 0.1, "detect: sample ratio")
		sampler   = flag.String("sampler", "", "detect: sampler name (empty = daemon default)")
		seed      = flag.Int64("seed", 1, "detect: ensemble seed")
		out       = flag.String("out", "", "write the JSON summary to this file instead of stdout")
		benchRows = flag.Bool("bench", false, "also print go-bench-formatted result lines on stdout")
	)
	flag.Parse()
	if *users <= 0 || *merchants <= 0 || *batch <= 0 || *workers <= 0 {
		return fmt.Errorf("-users, -merchants, -batch and -ingest-workers must be positive")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *workers + 4,
			MaxIdleConnsPerHost: *workers + 4,
		},
		Timeout: 2 * time.Minute,
	}

	ingest := &ingestLoad{
		client: client, url: *addr + "/v1/edges",
		batch: int64(*batch), users: *users, merchants: *merchants,
	}
	var detectRec recorder

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ingest.work(ctx)
		}()
	}

	if *detectEv > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := make([]time.Duration, 0, 1024)
			defer func() { detectRec.donate(lat) }()
			t := time.NewTicker(*detectEv)
			defer t.Stop()
			req := fmt.Sprintf(`{"n":%d,"s":%g,"sampler":%q,"seed":%d}`, *detectN, *detectS, *sampler, *seed)
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
				}
				d, status, _, err := post(ctx, client, *addr+"/v1/detect", []byte(req))
				if err != nil {
					if ctx.Err() == nil {
						detectRec.errors.Add(1)
					}
					continue
				}
				detectRec.requests.Add(1)
				lat = append(lat, d)
				if status >= 500 {
					detectRec.errors.Add(1)
				}
			}
		}()
	}

	wg.Wait()
	elapsed := time.Since(start)

	sum := summary{
		DurationSeconds: elapsed.Seconds(),
		Users:           *users,
		DistinctUsers:   coveredUsers(ingest.acked, ingest.batch, *users),
		Ingest:          ingest.rec.summarize(),
		Detect:          detectRec.summarize(),
		EdgesSent:       int64(len(ingest.acked)) * ingest.batch,
	}
	sum.EdgesPerSecond = float64(sum.EdgesSent) / elapsed.Seconds()
	sum.FinalStats = fetchStats(client, *addr)

	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Println(string(enc))
	}
	if *benchRows {
		printBenchRows(sum)
	}
	return nil
}

// ingestLoad is the state the ingest workers share: the global edge
// sequence, the latency recorder, and the sequence bases of every batch the
// daemon acknowledged.
type ingestLoad struct {
	client                  *http.Client
	url                     string
	batch, users, merchants int64

	seq atomic.Int64 // global edge sequence: user id = seq mod users
	rec recorder

	mu    sync.Mutex
	acked []int64
}

// work runs one ingest worker until ctx ends. Each batch drawn from the
// sequence is resent until the daemon acknowledges it: after a 429, a 5xx
// or a transport failure the worker waits out the Retry-After hint (1 s
// without one) and resends the same bytes. Any other rejection drops the
// batch, which then never counts as sent.
func (l *ingestLoad) work(ctx context.Context) {
	lat := make([]time.Duration, 0, 1<<14)
	var acked []int64
	defer func() {
		l.rec.donate(lat)
		l.mu.Lock()
		l.acked = append(l.acked, acked...)
		l.mu.Unlock()
	}()
	body := make([]byte, 0, 16*l.batch)
	for ctx.Err() == nil {
		base := l.seq.Add(l.batch) - l.batch
		body = appendBatch(body[:0], base, l.batch, l.users, l.merchants)
		for ctx.Err() == nil {
			d, status, hint, err := post(ctx, l.client, l.url, body)
			if err != nil {
				if ctx.Err() == nil {
					l.rec.errors.Add(1)
					sleep(ctx, time.Second)
				}
				continue
			}
			l.rec.requests.Add(1)
			lat = append(lat, d)
			if status/100 == 2 {
				acked = append(acked, base)
				break
			}
			if status == http.StatusTooManyRequests {
				l.rec.shed.Add(1)
			} else {
				l.rec.errors.Add(1)
				if status < 500 {
					break // the request itself was refused; resending cannot help
				}
			}
			sleep(ctx, retryAfter(hint))
		}
	}
}

// retryAfter reads a Retry-After header given in seconds, falling back to
// one second when it is absent or not a non-negative integer.
func retryAfter(h string) time.Duration {
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return time.Second
}

// coveredUsers counts the distinct user ids touched by the acknowledged
// batches starting at the given sequence bases, each batch edges long: the
// union of their sequence ranges taken modulo users.
func coveredUsers(bases []int64, batch, users int64) int64 {
	if len(bases) > 0 && batch >= users {
		return users
	}
	type span struct{ lo, hi int64 }
	spans := make([]span, 0, len(bases)+1)
	for _, base := range bases {
		lo := base % users
		if hi := lo + batch; hi <= users {
			spans = append(spans, span{lo, hi})
		} else {
			spans = append(spans, span{lo, users}, span{0, hi - users})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	var covered, end int64
	for _, sp := range spans {
		if sp.hi <= end {
			continue
		}
		covered += sp.hi - max(sp.lo, end)
		end = sp.hi
	}
	return covered
}

// appendBatch builds the /v1/edges JSON body for edges base..base+n-1 of the
// global sequence. User ids walk the id space sequentially (mod users), so
// coverage of distinct users is exact; merchant ids are a Fibonacci-hash
// spread of the sequence number.
func appendBatch(b []byte, base, n, users, merchants int64) []byte {
	b = append(b, `{"edges":[`...)
	for i := int64(0); i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		s := base + i
		u := s % users
		v := (uint64(s) * 0x9E3779B97F4A7C15) % uint64(merchants)
		b = append(b, '[')
		b = strconv.AppendInt(b, u, 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(v), 10)
		b = append(b, ']')
	}
	return append(b, `]}`...)
}

// post sends one JSON request, returning its latency, status and
// Retry-After header.
func post(ctx context.Context, client *http.Client, url string, body []byte) (time.Duration, int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := client.Do(req)
	d := time.Since(start)
	if err != nil {
		return d, 0, "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return d, resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

func sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// fetchStats grabs the daemon's own counters after the soak; nil on any
// failure — the report is still useful without the cross-check.
func fetchStats(client *http.Client, addr string) *daemonStats {
	resp, err := client.Get(addr + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st daemonStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil
	}
	return &st
}

// printBenchRows renders the headline quantiles as go-bench lines so soak
// results land in BENCH_*.json baselines and diff with benchstat.
func printBenchRows(sum summary) {
	row := func(name string, ms jsonMS) {
		f := float64(ms)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return
		}
		fmt.Printf("BenchmarkSoak%s 1 %d ns/op\n", name, int64(f*float64(time.Millisecond)))
	}
	row("IngestP50", sum.Ingest.P50Ms)
	row("IngestP99", sum.Ingest.P99Ms)
	row("IngestP999", sum.Ingest.P999Ms)
	row("DetectP50", sum.Detect.P50Ms)
	row("DetectP99", sum.Detect.P99Ms)
	row("DetectP999", sum.Detect.P999Ms)
	fmt.Printf("BenchmarkSoakIngestThroughput 1 %.0f edges/s\n", sum.EdgesPerSecond)
}
