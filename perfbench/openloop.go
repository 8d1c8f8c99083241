package main

import (
	"context"
	"sync"
	"time"
)

// An open-loop schedule sends request i at start + i/rate whether or not
// earlier requests have completed, so a stall in the system under test
// delays every request due during it. Each request's latency is measured
// from its due time, never from when a free connection finally sent it —
// timing from the send would hide exactly the queueing a stall causes.

// outcome is what became of one scheduled request.
type outcome struct {
	Due  time.Time // when the schedule said to send it
	Sent time.Time // when a connection actually sent it (zero if never)
	Done time.Time // when its response completed (zero if never sent)
	OK   bool      // a 2xx response; a 429, 5xx, transport error or abandonment is not
}

// Latency is the request's latency from its due time.
func (o outcome) Latency() time.Duration { return o.Done.Sub(o.Due) }

// dueTimes is the schedule: every send time in [start, start+dur) at the
// given rate (requests per second).
func dueTimes(start time.Time, rate float64, dur time.Duration) []time.Time {
	if rate <= 0 || dur <= 0 {
		return nil
	}
	period := float64(time.Second) / rate
	n := int(float64(dur) / period)
	if float64(n)*period < float64(dur) {
		n++
	}
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) * period))
	}
	return out
}

// loopResult is one open-loop phase's record.
type loopResult struct {
	Outcomes []outcome
	// GenLate is how late the generator released each request against its
	// due time — the generator's own lag, not queueing behind busy
	// connections (that is in the latency).
	GenLate series
}

// runOpenLoop releases the requests of due on schedule to conns workers that
// each send one at a time. send reports whether the request succeeded; a
// failure (a 429 included) is recorded and the schedule carries on without
// pausing. Requests still unsent when drainBy passes are abandoned and count
// as failed.
func runOpenLoop(ctx context.Context, due []time.Time, conns int, drainBy time.Time,
	send func(ctx context.Context, i int) bool) loopResult {
	res := loopResult{Outcomes: make([]outcome, len(due)), GenLate: make(series, 0, len(due))}
	for i, d := range due {
		res.Outcomes[i].Due = d
	}
	// Sized to the number of sends so the generator never blocks on a slow
	// system: the backlog lives in this buffer, visible as latency.
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if ctx.Err() != nil || time.Now().After(drainBy) {
					continue // abandoned: counted as failed
				}
				o := &res.Outcomes[i]
				o.Sent = time.Now()
				o.OK = send(ctx, i)
				o.Done = time.Now()
			}
		}()
	}
	for i, d := range due {
		if wait := time.Until(d); wait > 0 {
			sleepCtx(ctx, wait)
		}
		if ctx.Err() != nil {
			break
		}
		res.GenLate.add(max(time.Since(d), 0))
		queue <- i
	}
	close(queue)
	wg.Wait()
	return res
}

// sleepCtx waits for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// latencies returns every outcome's latency from its due time, with a failed
// or abandoned request entered at failLatency (at least the latency limit it
// is deemed to miss), and the failure count.
func latencies(outs []outcome, failLatency time.Duration) (series, int) {
	s := make(series, 0, len(outs))
	failed := 0
	for _, o := range outs {
		if !o.OK {
			failed++
			s.add(max(failLatency, o.Latency()))
			continue
		}
		s.add(o.Latency())
	}
	return s, failed
}
