package main

import (
	"sync"
	"testing"
	"time"
)

func TestSpansNestByGoroutine(t *testing.T) {
	tr := newTracer()
	h := tr.begin("serve.edges", "")
	time.Sleep(time.Millisecond)
	a := tr.begin("stream.append", "")
	j := tr.begin("persist.append", "")
	time.Sleep(2 * time.Millisecond)
	tr.end(j, 0)
	tr.end(a, 0)
	tr.end(h, 0)

	if got := tr.spans[a].parent; got != h {
		t.Errorf("append's parent = %d, want the handler %d", got, h)
	}
	if got := tr.spans[j].parent; got != a {
		t.Errorf("journal's parent = %d, want the append %d", got, a)
	}
	if got := tr.spans[h].parent; got != -1 {
		t.Errorf("handler has parent %d, want none", got)
	}

	// Self time is the span minus its children, exactly.
	span := func(i int) time.Duration { return tr.spans[i].end.Sub(tr.spans[i].start) }
	st := tr.stats("serve.edges", time.Time{})
	if len(st.self) != 1 {
		t.Fatalf("%d handler spans, want 1", len(st.self))
	}
	want := span(h) - span(a)
	if got := st.self[0]; got != float64(want)/float64(time.Millisecond) {
		t.Errorf("handler self = %v ms, want %v", got, want)
	}
	ap := tr.stats("stream.append", time.Time{})
	if want := span(a) - span(j); ap.self[0] != float64(want)/float64(time.Millisecond) {
		t.Errorf("append self = %v ms, want %v", ap.self[0], want)
	}
}

// A call the engine makes on its own goroutine gets the route's span as its
// parent only while exactly one such span is open.
func TestLogicalParentOnlyWhenUnambiguous(t *testing.T) {
	tr := newTracer()
	d1 := tr.begin("serve.detect", "")
	onOther := func() int {
		var idx int
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			idx = tr.begin("stream.delta", "serve.detect")
			tr.end(idx, 0)
		}()
		wg.Wait()
		return idx
	}
	if got := tr.spans[onOther()].parent; got != d1 {
		t.Errorf("one open detect: delta parent = %d, want %d", got, d1)
	}
	// A second detect open on another goroutine makes the parent ambiguous.
	started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		d2 := tr.begin("serve.detect", "")
		close(started)
		<-release
		tr.end(d2, 0)
	}()
	<-started
	if got := tr.spans[onOther()].parent; got != -1 {
		t.Errorf("two open detects: delta parent = %d, want none", got)
	}
	close(release)
	<-done
	tr.end(d1, 0)
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer()
	tr.spans = []span{
		{name: "p", start: at(0), end: at(100), closed: true, childSpans: []int{1, 2, 3, 4}},
		{name: "c", start: at(10), end: at(30), closed: true},
		{name: "c", start: at(20), end: at(40), closed: true},  // overlaps the first
		{name: "c", start: at(90), end: at(120), closed: true}, // clipped to the parent
		{name: "c", start: at(50), end: at(60)},                // still open: ignored
	}
	if got, want := tr.coveredLocked(tr.spans[0]), 40*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}
