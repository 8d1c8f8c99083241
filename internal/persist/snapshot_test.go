package persist

import (
	"bytes"
	"os"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/stream"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the snapshot decoder, which
// covers the snapshot header and the CSR codec (bipartite.ReadCSR) in one
// target: it must never panic, and every graph it does return must pass
// (*bipartite.Graph).Validate, so a corrupt file can fail recovery but
// never hand a malformed CSR to the detector.
func FuzzDecodeSnapshot(f *testing.F) {
	dir := f.TempDir()
	for i, edges := range [][]bipartite.Edge{
		nil,
		{{U: 0, V: 0}},
		{{U: 0, V: 1}, {U: 2, V: 0}, {U: 2, V: 1}, {U: 5, V: 3}},
	} {
		bld := bipartite.NewBuilder()
		for _, e := range edges {
			bld.AddEdge(e.U, e.V)
		}
		path, err := writeSnapshotFile(dir, bld.Build(), uint64(i+1), stream.WindowMark{Version: 1, Wall: 7}, 42, 3)
		if err != nil {
			f.Fatal(err)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(snap)
		f.Add(append([]byte(nil), snap[:len(snap)-3]...))
		f.Add(append([]byte(nil), snap[:60]...)) // header only
		for _, at := range []int{10, 30, len(snap) / 2, len(snap) - 1} {
			flipped := append([]byte(nil), snap...)
			flipped[at] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := decodeSnapshot(bytes.NewReader(data), "fuzz")
		if err != nil {
			if g != nil {
				t.Fatal("decoder returned a graph alongside an error")
			}
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
	})
}
