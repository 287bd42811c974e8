package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// pqdBin is cmd/pqd, built once for the package's tests.
var pqdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	pqdBin = filepath.Join(dir, "pqd")
	if out, err := exec.Command("go", "build", "-o", pqdBin, "skipqueue/cmd/pqd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build pqd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smokeOpts is a one-second run of a workload, with the large structures
// shrunk: the smoke asserts correctness, never timing.
func smokeOpts(t *testing.T, name string) runOpts {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	spec.WarmupS = 0.2
	w, ok := spec.workload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	w.Prefill = min(w.Prefill, 1<<15)
	w.SeedElements = min(w.SeedElements, 20000)
	w.PhaseOps = min(w.PhaseOps, 5000)
	return runOpts{
		spec: spec, w: w, seed: 7, seconds: 1, setups: 1,
		env: environ{pqd: pqdBin, work: t.TempDir()},
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := smokeOpts(t, w.Name)
			m, err := runners[w.Name](o)
			if err != nil {
				t.Fatal(err)
			}
			if m.failed != 0 || len(m.violations) != 0 {
				t.Fatalf("failed=%d violations=%v", m.failed, m.violations)
			}
			if m.attempted < 1 {
				t.Fatal("nothing attempted")
			}
			for _, ms := range spec.EndToEnd {
				if v, ok := m.vals[ms.Name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v (measured %v), want a positive number", ms.Name, v, ok)
				}
			}
		})
	}
}

// A check that is made to count one delivery twice must turn the run
// incorrect: this is what ties the invariants to the exit code.
func TestCorruptedCheckFailsTheRun(t *testing.T) {
	o := smokeOpts(t, "inproc-mixed")
	o.corruptCheck = true
	m, err := runInprocMixed(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.violations) == 0 {
		t.Fatal("a value delivered twice went unnoticed")
	}
	t.Log(m.violations)
}

func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced run takes about 20 s")
	}
	o := smokeOpts(t, "net-single")
	o.spec.Ladder.Ops = 20000
	o.spec.Ladder.WireOps = 100000
	o.spec.Ladder.RTTOps = 500
	o.spec.Ladder.BatchFrames = 50
	o.spec.Ladder.FrontierS = 0.2
	o.spec.Ladder.FrontierRecordedOps = 20000
	o.spec.Ladder.ProdSeedElements = 10000
	o.spec.Ladder.ProdSeconds = 1
	o.seconds = 2
	m, err := runTraced(o, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 || len(m.violations) != 0 {
		t.Fatalf("failed=%d violations=%v", m.failed, m.violations)
	}
	for _, ms := range o.spec.PerLayer {
		if _, ok := m.vals[ms.Name]; !ok {
			t.Errorf("per-layer metric %s was not measured", ms.Name)
		}
	}
	if len(m.spans()) == 0 {
		t.Error("the traced run kept no spans")
	}
	for i, s := range m.spans() {
		if s.Parent >= int32(i) {
			t.Fatalf("span %d has parent %d, want an earlier span", i, s.Parent)
		}
	}
}

// BENCHMARK.json at the repository root is the driver's view of spec.json:
// same workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why,omitempty"`
		Unit   string  `json:"unit,omitempty"`
		Better string  `json:"better,omitempty"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var bm struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if bm.RunSeconds != spec.Seconds {
		t.Errorf("run_seconds %v, spec.json seconds %v", bm.RunSeconds, spec.Seconds)
	}
	var ws, e2e, pl []entry
	for _, w := range spec.Workloads {
		ws = append(ws, entry{Name: w.Name, Why: w.Why})
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, entry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range spec.PerLayer {
		pl = append(pl, entry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(bm.Workloads, ws) {
		t.Errorf("workloads differ:\nBENCHMARK.json %+v\nspec.json      %+v", bm.Workloads, ws)
	}
	if !reflect.DeepEqual(bm.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nspec.json      %+v", bm.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(bm.PerLayer, pl) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nspec.json      %+v", bm.PerLayer, pl)
	}
	for _, w := range spec.Workloads {
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("spec.json names workload %s, which has no runner", w.Name)
		}
	}
}
