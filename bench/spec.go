package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// spec.json holds every sizing constant and every metric definition, so
// that rate, prefill, window and limits are data. BENCHMARK.json at the
// repository root repeats the names, units, directions and bounds in the
// driver's format; a test keeps the two in step.
//
//go:embed spec.json
var specJSON []byte

type workloadSpec struct {
	Name          string `json:"name"`
	Why           string `json:"why"`
	Goroutines    int    `json:"goroutines"`
	Conns         int    `json:"conns"`
	Prefill       int    `json:"prefill"`
	PrefillGs     int    `json:"prefill_goroutines"`
	PhaseOps      int    `json:"phase_ops"`
	KeyRange      int64  `json:"key_range"`
	ValueBytes    int    `json:"value_bytes"`
	BalanceClamp  int    `json:"balance_clamp"`
	SampleEvery   int    `json:"sample_every"`
	LatStat       string `json:"lat_stat"` // which latency statistic lat_us is
	LeaseTTL      string `json:"lease_ttl"`
	SeedElements  int    `json:"seed_elements"`
	Rate          int    `json:"rate"`
	BatchMax      int    `json:"batch_max"`
	BatchLingerUs int    `json:"batch_linger_us"`
	Window        int    `json:"window"`
	LateMs        int    `json:"late_ms"`
	Flight        int    `json:"flight"`
	Setups        int    `json:"setups"`
}

type ladderSpec struct {
	Ops                 int     `json:"ops"`
	Passes              int     `json:"passes"`
	Prefill             int     `json:"prefill"`
	SyncCommits         int     `json:"sync_commits"`
	WireOps             int     `json:"wire_ops"`
	RTTOps              int     `json:"rtt_ops"`
	BatchFrames         int     `json:"batch_frames"`
	FrontierS           float64 `json:"frontier_s"`
	FrontierRecordedOps int     `json:"frontier_recorded_ops"`
	ProdSeedElements    int     `json:"prod_seed_elements"`
	ProdSeconds         float64 `json:"prod_seconds"`
	SimProcs            int     `json:"sim_procs"`
	SimInitial          int     `json:"sim_initial"`
	SimOps              int     `json:"sim_ops"`
	SimSeed             uint64  `json:"sim_seed"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	Moves  string  `json:"moves,omitempty"` // per-layer only: the end-to-end metric it is predicted to move
}

type benchSpec struct {
	Seconds   float64        `json:"seconds"`
	WarmupS   float64        `json:"warmup_s"`
	Slices    int            `json:"slices"`
	Workloads []workloadSpec `json:"workloads"`
	Ladder    ladderSpec     `json:"ladder"`
	EndToEnd  []metricSpec   `json:"end_to_end"`
	PerLayer  []metricSpec   `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (workloadSpec, bool) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
