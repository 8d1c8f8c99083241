package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/core"
	"ensemfdet/internal/density"
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
)

// replayStats splits the ensemble's per-sample work between its two stages,
// measured by calling each stage directly on a workload's final snapshot.
type replayStats struct {
	samples       int
	sampleMS      float64 // Σ sampling.SampleInto time
	peelMS        float64 // Σ (*fdet.Scratch).Detect time
	subgraphEdges int     // Σ sampled subgraph edges
	rounds        int     // Σ peeling rounds (detected blocks, pre-truncation)
	kept          int     // Σ k̂ (blocks kept after truncation)
	runMS         float64 // wall time of one core.Run with the same config
	runRounds     int64   // that run's PeelRounds, which the replay should equal
	workers       int
}

// parallelEff is the replayed per-sample work over the core.Run wall time
// times its worker count: 1 means the run's workers were never idle or
// slowed by one another.
func (r *replayStats) parallelEff() float64 {
	return (r.sampleMS + r.peelMS) / (r.runMS * float64(r.workers))
}

// stageReplay draws the same samples core.Run draws for (dc, seed) — each
// from an rng seeded by (seed, i) exactly as core does — and times the
// sampler and the peeler on each, then times one core.Run of the config.
func stageReplay(g *bipartite.Graph, dc detectConfig, seed int64) (*replayStats, error) {
	m, err := sampling.ByName(dc.Sampler)
	if err != nil {
		return nil, err
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("stage replay: empty graph")
	}
	parentW := density.Default().MerchantWeights(g)
	var ss sampling.Scratch
	det := fdet.NewScratch()
	rs := &replayStats{samples: dc.N, workers: runtime.GOMAXPROCS(0)}
	var weights []float64
	for i := 0; i < dc.N; i++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)*2_654_435_761 + 1))
		t0 := time.Now()
		sg := sampling.SampleInto(m, g, dc.S, rng, &ss)
		rs.sampleMS += ms(time.Since(t0))
		weights = weights[:0]
		for lv := 0; lv < sg.NumMerchants(); lv++ {
			weights = append(weights, parentW[sg.ParentMerchant(uint32(lv))])
		}
		t1 := time.Now()
		res := det.Detect(sg.Graph, fdet.Options{MerchantWeights: weights})
		rs.peelMS += ms(time.Since(t1))
		rs.subgraphEdges += sg.NumEdges()
		rs.rounds += len(res.Scores)
		rs.kept += res.TruncatedAt
	}
	start := time.Now()
	out, err := core.Run(g, core.Config{Method: m, NumSamples: dc.N, SampleRatio: dc.S, Seed: seed})
	if err != nil {
		return nil, err
	}
	rs.runMS = ms(time.Since(start))
	rs.runRounds = out.PeelRounds
	return rs, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
