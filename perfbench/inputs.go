package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/linalg"
)

// genPreset generates one of the paper's Table I dataset shapes at scale.
func genPreset(preset int, scale float64, seed int64) (*datagen.Dataset, error) {
	ds, err := datagen.GeneratePreset(datagen.PresetID(preset), scale, seed)
	if err != nil {
		return nil, fmt.Errorf("generating Dataset #%d at scale %g: %w", preset, scale, err)
	}
	return ds, nil
}

// writeEdgeFile writes edges in the text edge-list format -load reads.
func writeEdgeFile(path string, edges []bipartite.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	var line []byte
	for _, e := range edges {
		line = strconv.AppendUint(line[:0], uint64(e.U), 10)
		line = append(line, '\t')
		line = strconv.AppendUint(line, uint64(e.V), 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readEdgeFile reads an edge list back, as the daemon's -load does.
func readEdgeFile(path string) ([]bipartite.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bipartite.ReadEdgesMax(f, bipartite.MaxNodeID)
}

// freshStream feeds the windowed workload: small batches from brand-new
// users to existing merchants, with merchant popularity Zipf-skewed so a few
// merchants take most of the new traffic.
type freshStream struct {
	nextUser uint32
	zipf     *rand.Zipf
}

func newFreshStream(firstUser uint32, merchants int, zipfS float64, seed int64) *freshStream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return &freshStream{nextUser: firstUser, zipf: rand.NewZipf(rng, zipfS, 1, uint64(merchants-1))}
}

func (s *freshStream) next(n int) []bipartite.Edge {
	out := make([]bipartite.Edge, n)
	for i := range out {
		out[i] = bipartite.Edge{U: s.nextUser, V: uint32(s.zipf.Uint64())}
		s.nextUser++
	}
	return out
}

// calibrate times a kernel whose code has not changed since the repository
// began — the rank-25 TruncatedSVD of a fixed generated graph's adjacency —
// so results from different hosts can be told apart at a glance. It returns
// the median of several runs in milliseconds.
func calibrate() (float64, error) {
	ds, err := genPreset(1, 0.02, 1)
	if err != nil {
		return 0, err
	}
	g := ds.Graph
	entries := make([]linalg.Entry, 0, g.NumEdges())
	for _, e := range g.EdgeList() {
		entries = append(entries, linalg.Entry{Row: e.U, Col: e.V, Val: 1})
	}
	adj, err := linalg.NewSparse(g.NumUsers(), g.NumMerchants(), entries)
	if err != nil {
		return 0, fmt.Errorf("calibration matrix: %w", err)
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		linalg.TruncatedSVD(adj, 25, 3, 1)
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond))
	}
	return median(ms), nil
}
