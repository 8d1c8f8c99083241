package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// specJSON holds every fixed size, rate, detect config and limit of the
// workloads, plus the per-layer → end-to-end map; it is the one place those
// values live.
//
//go:embed spec.json
var specJSON []byte

type datasetSpec struct {
	Preset int     `json:"preset"`
	Scale  float64 `json:"scale"`
}

type workloadSpec struct {
	Dataset       datasetSpec   `json:"dataset"`
	Detect        *detectConfig `json:"detect"`
	BatchEdges    int           `json:"batch_edges"`
	Connections   int           `json:"connections"`
	Rate          float64       `json:"rate_batches_per_s"`
	MerchantZipfS float64       `json:"merchant_zipf_s"`
	SnapshotEvery int64         `json:"snapshot_every"`
}

type layerSpec struct {
	Metric string `json:"metric"`
	Moves  string `json:"moves"`
	On     string `json:"on"`
}

type spec struct {
	Setups    int                     `json:"setups"`
	Workloads map[string]workloadSpec `json:"workloads"`
	Layers    []layerSpec             `json:"layers"`
}

func loadSpec() (*spec, error) {
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		return nil, fmt.Errorf("parsing spec.json: %w", err)
	}
	return &sp, nil
}
