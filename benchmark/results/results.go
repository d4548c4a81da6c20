// Package results is the file format the benchmark's all-workloads mode
// writes and benchmark/compare reads: one record per (workload, run).
package results

import (
	"encoding/json"
	"fmt"
	"os"
)

// Run is one run of one workload: an untraced process for the end-to-end
// metrics and a traced one for the per-layer metrics, same seed.
type Run struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Digest    string             `json:"sim_digest"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

// Set is every run of one invocation.
type Set struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Size    float64 `json:"size"`
	Runs    []Run   `json:"runs"`
}

// Save writes the set as indented JSON.
func (s *Set) Save(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Load reads a set written by Save.
func Load(path string) (*Set, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
