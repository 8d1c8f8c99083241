package core

import (
	"sync"

	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
	"ensemfdet/internal/scratch"
)

// Arena is the scratch state of one ensemble worker: the sampler's index
// buffers and subgraph-build arena, the FDET peeler state, the per-sample
// merchant-weight buffer, the per-sample vote dedup stamps and voted-node
// lists, and the worker-local vote accumulators. A worker claims one arena,
// processes many samples with it, and allocates nothing after the first few
// samples warm the buffers.
//
// Arenas hold scratch only — nothing in an arena influences detection
// results, which stay byte-identical for a fixed Config.Seed no matter how
// arenas are recycled (pinned by determinism tests).
type Arena struct {
	samp    sampling.Scratch
	det     fdet.Scratch
	weights []float64
	seenU   scratch.Stamps // per-sample vote dedup: a node votes once per sample
	seenV   scratch.Stamps
	// Per-sample voted-node lists of a recording run, built here and copied
	// into the record at final length.
	votedU, votedM []uint32
	// Worker-local vote accumulators in the parent id space; merged into
	// the output under one lock per worker instead of one per sample.
	userVotes  []int
	merchVotes []int
}

// ArenaPool hands out worker arenas. Run draws one arena per worker and
// returns it when the worker drains; a pool shared across Runs (the serving
// engine keeps one for the daemon's lifetime) makes steady-state detection
// effectively allocation-free. The zero value is empty and ready; arenas
// are created on demand, so a pool never blocks.
type ArenaPool struct {
	mu   sync.Mutex
	free []*Arena
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool { return &ArenaPool{} }

func (p *ArenaPool) get() *Arena {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		a := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return a
	}
	return &Arena{}
}

func (p *ArenaPool) put(a *Arena) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, a)
}
