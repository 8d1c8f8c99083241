package fdet

import (
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/density"
)

// completeBipartite builds the full a×b biclique.
func completeBipartite(a, b int) *bipartite.Graph {
	bld := bipartite.NewBuilderSized(a, b, a*b)
	for u := 0; u < a; u++ {
		for v := 0; v < b; v++ {
			bld.AddEdge(uint32(u), uint32(v))
		}
	}
	return bld.Build()
}

// TestPeelerAllEqualPrioritiesPinsTieBreak pins the raw deletion order on a
// graph whose nodes all start at the same priority: the 3×3 biclique. Every
// pop must take the lowest id among minimum-priority nodes, giving exactly
// this interleaving (users are ids 0..2, merchants ids 3..5):
//
//	pop u0@3 → merchants drop to 2 → pop m0@2 → u1,u2 drop to 2 →
//	pop u1@2 → m1,m2 drop to 1 → pop m1@1 → u2 drops to 1 →
//	pop u2@1 → m2 drops to 0 → pop m2@0.
func TestPeelerAllEqualPrioritiesPinsTieBreak(t *testing.T) {
	want := []int32{0, 3, 1, 4, 2, 5}
	g := completeBipartite(3, 3)
	var p peeler
	p.reset(g, density.AvgDegree{}, nil)
	if _, ok := p.peelOnce(); !ok {
		t.Fatal("peelOnce found nothing")
	}
	if len(p.order) != len(want) {
		t.Fatalf("%d deletions, want %d", len(p.order), len(want))
	}
	for i, id := range p.order {
		if id != want[i] {
			t.Fatalf("deletion %d = node %d, want %d (order %v)", i, id, want[i], p.order)
		}
	}
}

// TestDetectDegenerateInputs covers the peeler edge cases: empty graph, a
// single edge, and a graph that empties entirely in round one.
func TestDetectDegenerateInputs(t *testing.T) {
	opts := Options{Metric: density.AvgDegree{}}

	// Empty graph: no blocks, no scores.
	empty := Detect(bipartite.NewBuilder().Build(), opts)
	if len(empty.Blocks) != 0 || len(empty.Scores) != 0 || empty.TruncatedAt != 0 {
		t.Fatalf("empty graph detected %+v", empty)
	}

	// Single edge: one block holding both endpoints, φ = 1/2.
	single := bipartite.NewBuilderSized(1, 1, 1)
	single.AddEdge(0, 0)
	res := Detect(single.Build(), opts)
	if len(res.Blocks) != 1 {
		t.Fatalf("single edge gave %d blocks", len(res.Blocks))
	}
	blk := res.Blocks[0]
	if len(blk.Users) != 1 || blk.Users[0] != 0 || len(blk.Merchants) != 1 || blk.Merchants[0] != 0 {
		t.Fatalf("single-edge block = %+v", blk)
	}
	if blk.Score != 0.5 {
		t.Fatalf("single-edge score = %v, want 0.5", blk.Score)
	}

	// Complete biclique: round one consumes the whole graph (the best
	// suffix is the intact graph, and removing its edges empties it), so
	// detection must stop after one block even when asked for more.
	res = Detect(completeBipartite(4, 4), Options{Metric: density.AvgDegree{}, FixedK: 5})
	if len(res.Blocks) != 1 {
		t.Fatalf("biclique gave %d blocks, want 1", len(res.Blocks))
	}
	blk = res.Blocks[0]
	if len(blk.Users) != 4 || len(blk.Merchants) != 4 {
		t.Fatalf("biclique block shape %dx%d, want 4x4", len(blk.Users), len(blk.Merchants))
	}
	if blk.Score != 2 { // 16 edges / 8 nodes
		t.Fatalf("biclique score = %v, want 2", blk.Score)
	}
}
