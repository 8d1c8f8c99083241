package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestDueTimesFollowTheRate(t *testing.T) {
	start := time.Unix(100, 0)
	due := dueTimes(start, 4, time.Second)
	if len(due) != 4 {
		t.Fatalf("4/s for 1s: %d sends, want 4", len(due))
	}
	for i, d := range due {
		if want := start.Add(time.Duration(i) * 250 * time.Millisecond); !d.Equal(want) {
			t.Errorf("send %d due at %v, want %v", i, d.Sub(start), want.Sub(start))
		}
	}
	if n := len(dueTimes(start, 4, 1100*time.Millisecond)); n != 5 {
		t.Errorf("4/s for 1.1s: %d sends, want 5", n)
	}
	if dueTimes(start, 0, time.Second) != nil || dueTimes(start, 5, 0) != nil {
		t.Error("an empty schedule should have no sends")
	}
}

// A slow server must not slow the schedule: latency is counted from the due
// time, so queueing behind a busy connection shows as growing latency while
// the generator itself stays on time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n       = 20
		period  = 5 * time.Millisecond
		service = 20 * time.Millisecond // 4× the period: the queue grows
	)
	due := dueTimes(time.Now().Add(5*time.Millisecond), float64(time.Second/period), n*period)
	res := runOpenLoop(context.Background(), due, 1, time.Now().Add(time.Minute),
		func(context.Context, int) bool {
			time.Sleep(service)
			return true
		})
	if len(res.Outcomes) != n {
		t.Fatalf("%d outcomes, want %d", len(res.Outcomes), n)
	}
	for i, o := range res.Outcomes {
		if !o.OK || o.Sent.Before(o.Due) || o.Done.Before(o.Sent) {
			t.Fatalf("outcome %d out of order: %+v", i, o)
		}
	}
	// The last request waited behind n-1 services it was not due for.
	last := res.Outcomes[n-1].Latency()
	if min := time.Duration(n)*service - time.Duration(n-1)*period; last < min {
		t.Errorf("last latency %v, want at least %v", last, min)
	}
	if first := res.Outcomes[0].Latency(); first >= last {
		t.Errorf("latency did not grow with the backlog: first %v, last %v", first, last)
	}
	// The generator released every request close to its due time.
	if len(res.GenLate) != n {
		t.Fatalf("%d lateness samples, want %d", len(res.GenLate), n)
	}
	if late := res.GenLate.tail(); late.Value > float64(service)/float64(time.Millisecond) {
		t.Errorf("generator ran %v ms late, it should not wait for the server", late.Value)
	}
}

// A refused request (a 429) is a failure, and the schedule carries on
// without pausing for it.
func TestOpenLoopFailuresDoNotPause(t *testing.T) {
	due := dueTimes(time.Now().Add(5*time.Millisecond), 200, 100*time.Millisecond)
	var sent atomic.Int64
	res := runOpenLoop(context.Background(), due, 2, time.Now().Add(time.Minute),
		func(context.Context, int) bool {
			sent.Add(1)
			return false
		})
	if int(sent.Load()) != len(due) {
		t.Fatalf("%d of %d requests sent after failures", sent.Load(), len(due))
	}
	lat, failed := latencies(res.Outcomes, requestTimeout)
	if failed != len(due) {
		t.Errorf("failed = %d, want %d", failed, len(due))
	}
	// Each failure enters the latency series at the timeout: it misses any
	// latency limit.
	if q := lat.p50(); q.Value < float64(requestTimeout)/float64(time.Millisecond) {
		t.Errorf("failed requests' p50 = %g ms, want at least the timeout", q.Value)
	}
	if spread := res.Outcomes[len(due)-1].Sent.Sub(due[len(due)-1]); spread > 50*time.Millisecond {
		t.Errorf("last request sent %v after its due time; failures paused the schedule", spread)
	}
}

func TestOpenLoopAbandonsPastDrainDeadline(t *testing.T) {
	due := dueTimes(time.Now(), 1000, 10*time.Millisecond)
	var sent atomic.Int64
	res := runOpenLoop(context.Background(), due, 1, time.Now().Add(-time.Second),
		func(context.Context, int) bool {
			sent.Add(1)
			return true
		})
	if sent.Load() != 0 {
		t.Errorf("%d requests sent past the drain deadline", sent.Load())
	}
	if _, failed := latencies(res.Outcomes, requestTimeout); failed != len(due) {
		t.Errorf("abandoned requests: %d failed, want %d", failed, len(due))
	}
}

func TestLatenciesFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	outs := []outcome{
		{Due: t0, Sent: t0.Add(2 * time.Millisecond), Done: t0.Add(5 * time.Millisecond), OK: true},
		{Due: t0, Sent: t0, Done: t0.Add(time.Millisecond), OK: false},
	}
	lat, failed := latencies(outs, 25*time.Millisecond)
	if failed != 1 || len(lat) != 2 {
		t.Fatalf("failed=%d n=%d, want 1 and 2", failed, len(lat))
	}
	if lat[0] != 5 || lat[1] != 25 {
		t.Errorf("latencies %v ms, want [5 25]: queueing counts, a failure takes the limit", lat)
	}
}

func TestFreshnessUsesFirstCoveringPoll(t *testing.T) {
	t0 := time.Unix(0, 0)
	outs := []outcome{
		{Due: t0, OK: true},
		{Due: t0.Add(10 * time.Millisecond), OK: true},
		{Due: t0.Add(20 * time.Millisecond), OK: false},
		{Due: t0.Add(30 * time.Millisecond), OK: true},
	}
	acks := []ingestAck{{Version: 2}, {Version: 3}, {}, {Version: 9}}
	polls := []pollAnswer{
		{done: t0.Add(40 * time.Millisecond), version: 2},
		{done: t0.Add(70 * time.Millisecond), version: 5},
	}
	got := freshness(outs, acks, polls)
	// Batch 0 is covered by the first poll, batch 1 by the second, batch 2
	// failed and batch 3 was never covered.
	want := series{40, 60}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("freshness = %v ms, want %v", got, want)
	}
}
