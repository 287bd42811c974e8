package harness

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunBasics(t *testing.T) {
	for _, s := range []Structure{SkipQueue, Relaxed, Heap, FunnelList, FunnelDelMin} {
		r := Run(Params{Structure: s, Procs: 4, InitialSize: 50, Ops: 400, Work: 100})
		if r.Inserts+r.Deletes == 0 {
			t.Fatalf("%s: no operations recorded", s)
		}
		if r.AvgOp <= 0 {
			t.Fatalf("%s: AvgOp = %v", s, r.AvgOp)
		}
		if r.TotalCycles <= 0 {
			t.Fatalf("%s: TotalCycles = %v", s, r.TotalCycles)
		}
		// ~50/50 coin flips.
		frac := float64(r.Inserts) / float64(r.Inserts+r.Deletes)
		if frac < 0.3 || frac > 0.7 {
			t.Fatalf("%s: insert fraction %.2f", s, frac)
		}
	}
}

func TestRunDeterministicGivenSeed(t *testing.T) {
	p := Params{Structure: SkipQueue, Procs: 8, InitialSize: 100, Ops: 800, Work: 100, Seed: 9}
	a, b := Run(p), Run(p)
	if a != b {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
	p.Seed = 10
	c := Run(p)
	if a.TotalCycles == c.TotalCycles && a.AvgOp == c.AvgOp {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestInsertRatioRespected(t *testing.T) {
	r := Run(Params{Structure: SkipQueue, Procs: 4, InitialSize: 1000, Ops: 2000, InsertRatio: 0.3, Work: 100})
	frac := float64(r.Inserts) / float64(r.Inserts+r.Deletes)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("insert fraction %.2f, want about 0.3", frac)
	}
}

func TestLevelFor(t *testing.T) {
	cases := map[int]int{1: 4, 50: 6, 1000: 10, 27000: 15, 1 << 30: 24}
	for n, want := range cases {
		if got := levelFor(n); got != want {
			t.Fatalf("levelFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestProcSweep(t *testing.T) {
	got := procSweep(256)
	want := []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
	if len(got) != len(want) {
		t.Fatalf("procSweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("procSweep = %v", got)
		}
	}
}

func TestExperimentSpecsMatchPaper(t *testing.T) {
	// Parameters transcribed from the paper's Section 5.
	check := func(id string, init, ops int, ratio float64, structures int) {
		e, ok := FindExperiment(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		if e.InitialSize != init || e.Ops != ops || e.InsertRatio != ratio || len(e.Structures) != structures {
			t.Fatalf("%s spec = %+v", id, e)
		}
	}
	check("fig3", 50, 70000, 0.5, 3)
	check("fig4", 1000, 70000, 0.5, 3)
	check("fig5", 27000, 60000, 0.3, 2)
	check("fig6", 50, 7000, 0.5, 2)
	check("fig7", 1000, 7000, 0.5, 2)
	check("fig8", 27000, 60000, 0.3, 2)
	e, _ := FindExperiment("fig2")
	if e.Procs != 256 || len(e.Works) != 7 || e.Works[0] != 100 || e.Works[6] != 6000 {
		t.Fatalf("fig2 spec = %+v", e)
	}
}

func TestRunExperimentOutput(t *testing.T) {
	e, _ := FindExperiment("fig6")
	var buf bytes.Buffer
	results := RunExperiment(&buf, e, Options{Scale: 0.05, MaxProcs: 8})
	out := buf.String()
	if !strings.Contains(out, "SkipQueue") || !strings.Contains(out, "RelaxedSkipQueue") {
		t.Fatalf("output missing structures:\n%s", out)
	}
	// 4 processor counts (1,2,4,8) x 2 structures.
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
}

func TestRunExperimentCSV(t *testing.T) {
	e, _ := FindExperiment("fig6")
	var buf bytes.Buffer
	RunExperiment(&buf, e, Options{Scale: 0.05, MaxProcs: 2, CSV: true})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// title + header + 2x2 rows
	if len(lines) != 6 {
		t.Fatalf("CSV lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[1], "procs,structure,") {
		t.Fatalf("CSV header = %q", lines[1])
	}
	if strings.Count(lines[2], ",") != 7 {
		t.Fatalf("CSV row = %q", lines[2])
	}
}

func TestSummarizeAndCrossover(t *testing.T) {
	results := []Result{
		{Params: Params{Structure: Heap, Procs: 16}, AvgInsert: 1000, AvgDelete: 900, AvgOp: 950},
		{Params: Params{Structure: SkipQueue, Procs: 16}, AvgInsert: 100, AvgDelete: 300, AvgOp: 200},
		{Params: Params{Structure: FunnelList, Procs: 16}, AvgInsert: 400, AvgDelete: 400, AvgOp: 400},
		{Params: Params{Structure: Heap, Procs: 4}, AvgInsert: 150, AvgDelete: 150, AvgOp: 150},
		{Params: Params{Structure: SkipQueue, Procs: 4}, AvgInsert: 120, AvgDelete: 140, AvgOp: 130},
		{Params: Params{Structure: FunnelList, Procs: 4}, AvgInsert: 50, AvgDelete: 60, AvgOp: 55},
	}
	s := Summarize(results)
	if !strings.Contains(s, "Heap deletions are 3.0x") {
		t.Fatalf("summary = %q", s)
	}
	if !strings.Contains(s, "Heap insertions are 10.0x") {
		t.Fatalf("summary = %q", s)
	}
	if x := Crossover(results, FunnelList, SkipQueue); x != 16 {
		t.Fatalf("Crossover = %d, want 16", x)
	}
	if x := Crossover(results, SkipQueue, FunnelList); x != 4 {
		t.Fatalf("reverse Crossover = %d, want 4", x)
	}
}

func TestFig2WorkSweepShape(t *testing.T) {
	e, _ := FindExperiment("fig2")
	var buf bytes.Buffer
	results := RunExperiment(&buf, e, Options{Scale: 0.02, MaxProcs: 32})
	if len(results) != len(e.Works) {
		t.Fatalf("got %d results, want %d", len(results), len(e.Works))
	}
	// Latency must decrease as the work period grows (the paper's Figure 2
	// observation: lower load, fewer concurrent accesses, lower latency).
	first, last := results[0], results[len(results)-1]
	if last.AvgOp >= first.AvgOp {
		t.Fatalf("latency did not fall with more work: %v -> %v", first.AvgOp, last.AvgOp)
	}
}

func TestHeapDegradesSkipQueueScales(t *testing.T) {
	// The paper's central claim, in miniature: growing 1 -> 32 processors
	// must hurt the Heap far more than the SkipQueue.
	heap1 := Run(Params{Structure: Heap, Procs: 1, InitialSize: 50, Ops: 2000, Work: 100})
	heap32 := Run(Params{Structure: Heap, Procs: 32, InitialSize: 50, Ops: 2000, Work: 100})
	skip1 := Run(Params{Structure: SkipQueue, Procs: 1, InitialSize: 50, Ops: 2000, Work: 100})
	skip32 := Run(Params{Structure: SkipQueue, Procs: 32, InitialSize: 50, Ops: 2000, Work: 100})
	heapGrowth := heap32.AvgOp / heap1.AvgOp
	skipGrowth := skip32.AvgOp / skip1.AvgOp
	if heapGrowth < 2*skipGrowth {
		t.Fatalf("heap growth %.1fx not clearly worse than skipqueue growth %.1fx",
			heapGrowth, skipGrowth)
	}
}

// TestSimGuardCyclesGolden pins the cycle counts of the benchmark ladder's
// simulator guard (the figure-4 point: 64 processors, 1000 prefilled
// elements, 7000 operations, seed 1). The simulation is deterministic, so a
// change to the engine or to the simulated structures that moves any of
// these values changes the reproduction itself. Each value is an integer sum
// over an integer count, so exact comparison is portable.
func TestSimGuardCyclesGolden(t *testing.T) {
	run := func(s Structure) Result {
		return Run(Params{Structure: s, Procs: 64, InitialSize: 1000, Ops: 7000,
			InsertRatio: 0.5, Work: 100, Seed: 1})
	}
	sq := run(SkipQueue)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"SkipQueue AvgInsert", sq.AvgInsert, 1856.2252042007},
		{"SkipQueue AvgDelete", sq.AvgDelete, 4970.267756482525},
		{"Heap AvgDelete", run(Heap).AvgDelete, 30854.45321307779},
		{"FunnelList AvgDelete", run(FunnelList).AvgDelete, 248640.82592486378},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v cycles, want %v", c.name, c.got, c.want)
		}
	}
}
