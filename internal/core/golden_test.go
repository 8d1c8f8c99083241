package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"ensemfdet/internal/bipartite"
	"ensemfdet/internal/datagen"
	"ensemfdet/internal/density"
	"ensemfdet/internal/fdet"
	"ensemfdet/internal/sampling"
)

// goldenVoteDigest pins the ensemble's votes over a grid of generated
// datasets, samplers and density metrics to one SHA-256. The peeler's heap,
// the sampler's index arithmetic and the vote merge may all be rewritten for
// speed, but any change that moves a single vote, k̂ or peel-round count
// moves this digest. Recompute it only for a change that is meant to alter
// detection results, and say so.
const goldenVoteDigest = "7689af6305c1fdab6f9215a0618573bbd0b63bf51e2645aeeb08051de1d9837b"

func TestGoldenVoteDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three datasets")
	}
	methods := []sampling.Method{sampling.RandomEdge{}, sampling.OneSideNode{Side: bipartite.MerchantSide}}
	metrics := []density.Metric{density.Default(), density.AvgDegree{}}
	h := sha256.New()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, preset := range datagen.AllPresets() {
		ds, err := datagen.GeneratePreset(preset, 0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range methods {
			for _, metric := range metrics {
				cfg := Config{Method: m, NumSamples: 16, SampleRatio: 0.1, Seed: 3, FDet: fdet.Options{Metric: metric}}
				out, err := Run(ds.Graph, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s/%s/%s", preset, m.Name(), metric.Name())
				for _, v := range out.Votes.User {
					put(int64(v))
				}
				for _, v := range out.Votes.Merchant {
					put(int64(v))
				}
				for _, k := range out.KHats {
					put(int64(k))
				}
				put(out.PeelRounds)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenVoteDigest {
		t.Errorf("vote digest = %s, want %s", got, goldenVoteDigest)
	}
}
