package main

import (
	"bytes"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/persist"
	"ensemfdet/internal/stream"
)

// Spans are recorded from outside the program, around the calls the
// benchmark's wrappers intercept at each layer boundary. A span's parent is
// the innermost span open on the same goroutine — the call nesting — or, for
// a call the engine makes on its own run goroutine, the one open span of the
// route that caused it when exactly one is open; otherwise it has none.

type span struct {
	name       string
	start, end time.Time
	gid        uint64
	parent     int     // index into tracer.spans, -1 for none
	buildNs    float64 // snapshot spans: build time BuildStats gained during the span
	closed     bool
	childSpans []int
}

type tracer struct {
	mu    sync.Mutex
	spans []span
	open  map[uint64][]int // goroutine → stack of open span indices
}

func newTracer() *tracer { return &tracer{open: make(map[uint64][]int)} }

// goid is the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64) // the header format is fixed by the runtime
	return id
}

// begin opens a span. logicalParent names a route whose single open span, if
// there is exactly one, becomes the parent when the goroutine has none open.
func (t *tracer) begin(name, logicalParent string) int {
	gid := goid()
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if st := t.open[gid]; len(st) > 0 {
		parent = st[len(st)-1]
	} else if logicalParent != "" {
		found := 0
		for _, st := range t.open {
			for _, i := range st {
				if t.spans[i].name == logicalParent {
					parent = i
					found++
				}
			}
		}
		if found != 1 {
			parent = -1
		}
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: now, gid: gid, parent: parent})
	if parent >= 0 {
		t.spans[parent].childSpans = append(t.spans[parent].childSpans, idx)
	}
	t.open[gid] = append(t.open[gid], idx)
	return idx
}

func (t *tracer) end(idx int, buildNs float64) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[idx]
	s.end, s.buildNs, s.closed = now, buildNs, true
	st := t.open[s.gid]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == idx {
			st = append(st[:i], st[i+1:]...)
			break
		}
	}
	if len(st) == 0 {
		delete(t.open, s.gid)
	} else {
		t.open[s.gid] = st
	}
}

// spanStats summarises the closed spans named name that started at or after
// from: total duration, self time (the span minus the union of its children's
// intervals), and the snapshot capture time (the span minus its build time).
type spanStats struct {
	dur, self, capture series
}

func (t *tracer) stats(name string, from time.Time) spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	var st spanStats
	for _, s := range t.spans {
		if s.name != name || !s.closed || s.start.Before(from) {
			continue
		}
		d := s.end.Sub(s.start)
		st.dur.add(d)
		st.self.add(d - t.coveredLocked(s))
		st.capture.add(max(d-time.Duration(s.buildNs), 0))
	}
	return st
}

// coveredLocked is the part of s's interval its children cover.
func (t *tracer) coveredLocked(s span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.childSpans {
		cs := t.spans[c]
		if !cs.closed {
			continue
		}
		a, b := cs.start, cs.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// tracedGraph wraps *stream.Graph for the engine (Snapshotter, and the
// optional Windower and Deltaer the engine type-asserts for — dropping one
// would silently switch windowing or incremental detection off), for the
// engine's stats (ShardSizes, BuildStats) and for the persistence store
// (SnapshotWithMark).
type tracedGraph struct {
	g *stream.Graph
	t *tracer
}

func (w *tracedGraph) buildNs() float64 {
	b := w.g.BuildStats()
	return float64(b.DeltaBuildDur + b.FullBuildDur)
}

func (w *tracedGraph) Snapshot() (*bipartite.Graph, uint64) {
	i := w.t.begin("stream.snapshot", "")
	b0 := w.buildNs()
	g, v := w.g.Snapshot()
	w.t.end(i, w.buildNs()-b0)
	return g, v
}

func (w *tracedGraph) SnapshotWithMark() (*bipartite.Graph, uint64, stream.WindowMark) {
	i := w.t.begin("stream.snapshot_mark", "")
	b0 := w.buildNs()
	g, v, m := w.g.SnapshotWithMark()
	w.t.end(i, w.buildNs()-b0)
	return g, v, m
}

func (w *tracedGraph) Append(edges []bipartite.Edge) stream.AppendResult {
	i := w.t.begin("stream.append", "")
	defer w.t.end(i, 0)
	return w.g.Append(edges)
}

func (w *tracedGraph) Retire(now time.Time) stream.RetireResult {
	i := w.t.begin("stream.retire", "")
	defer w.t.end(i, 0)
	return w.g.Retire(now)
}

func (w *tracedGraph) Delta(from, to uint64) (stream.Delta, bool) {
	i := w.t.begin("stream.delta", "serve.detect")
	defer w.t.end(i, 0)
	return w.g.Delta(from, to)
}

func (w *tracedGraph) Stats() stream.Stats             { return w.g.Stats() }
func (w *tracedGraph) Window() stream.WindowPolicy     { return w.g.Window() }
func (w *tracedGraph) WindowStats() stream.WindowStats { return w.g.WindowStats() }
func (w *tracedGraph) ShardSizes() []stream.ShardSize  { return w.g.ShardSizes() }
func (w *tracedGraph) BuildStats() stream.BuildStats   { return w.g.BuildStats() }

// tracedJournal wraps *persist.Store as the stream graph's stream.Journal.
type tracedJournal struct {
	s *persist.Store
	t *tracer
}

func (j *tracedJournal) AppendEdges(version uint64, edges []bipartite.Edge) error {
	i := j.t.begin("persist.append", "")
	defer j.t.end(i, 0)
	return j.s.AppendEdges(version, edges)
}

func (j *tracedJournal) RetireEdges(version uint64, edges []bipartite.Edge, mark stream.WindowMark) error {
	i := j.t.begin("persist.retire", "")
	defer j.t.end(i, 0)
	return j.s.RetireEdges(version, edges, mark)
}

// traceHandler records a span around the ingest and detect routes.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := ""
		switch r.URL.Path {
		case "/v1/edges":
			name = "serve.edges"
		case "/v1/detect":
			name = "serve.detect"
		}
		if name == "" {
			next.ServeHTTP(w, r)
			return
		}
		i := t.begin(name, "")
		defer t.end(i, 0)
		next.ServeHTTP(w, r)
	})
}
