package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1) // 1..1000
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}} {
		got, used := quantile(s, c.q)
		if got != c.want || used != c.q {
			t.Errorf("quantile(1..1000, %v) = %d (used %v), want %d", c.q, got, used, c.want)
		}
	}
}

// The highest percentile reported is the highest one with at least ten
// samples beyond it: p99.9 of 1000 samples has none, so it falls back.
func TestQuantileNeedsTenBeyond(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	got, used := quantile(s, 0.999)
	if got != 990 || used != 0.99 {
		t.Errorf("p99.9 of 1000 = %d (used %v), want the 990th sample as the 0.99 quantile", got, used)
	}
	// Exactly ten beyond is enough.
	if got, used := quantile(s, 0.99); got != 990 || used != 0.99 {
		t.Errorf("p99 of 1000 = %d (used %v), want 990 unchanged", got, used)
	}
}

func TestQuantileTies(t *testing.T) {
	// 900 equal samples and a tail: every percentile up to p90 is the tie.
	s := make([]int64, 0, 1000)
	for i := 0; i < 900; i++ {
		s = append(s, 7)
	}
	for i := 0; i < 100; i++ {
		s = append(s, int64(100+i))
	}
	for _, q := range []float64{0.5, 0.9} {
		if got, _ := quantile(s, q); got != 7 {
			t.Errorf("quantile(%v) over ties = %d, want 7", q, got)
		}
	}
	if got, _ := quantile(s, 0.901); got != 100 {
		t.Errorf("first sample past the tie = %d, want 100", got)
	}
}

func TestQuantileFewSamples(t *testing.T) {
	if got, used := quantile(nil, 0.5); got != 0 || used != 0 {
		t.Errorf("empty: got %d used %v", got, used)
	}
	// Fewer than ten samples: only the median can be reported.
	s := []int64{1, 2, 3, 4, 5, 6, 7}
	if got, used := quantile(s, 0.5); got != 4 || used != 0.5 {
		t.Errorf("median of 7 = %d (used %v), want 4", got, used)
	}
	got, used := quantile(s, 0.99)
	if got != 4 {
		t.Errorf("p99 of 7 samples = %d, want the median 4", got)
	}
	if used >= 0.99 {
		t.Errorf("p99 of 7 samples claims quantile %v", used)
	}
	// 15 samples: at most the 5th has ten beyond it, below the median, so
	// the median is used.
	s = s[:0]
	for i := 1; i <= 15; i++ {
		s = append(s, int64(i))
	}
	if got, _ := quantile(s, 0.9); got != 8 {
		t.Errorf("p90 of 15 samples = %d, want the median 8", got)
	}
}

func TestSamplesNeverGrow(t *testing.T) {
	s := newSamples(2)
	for i := 0; i < 5; i++ {
		s.add(int64(i))
	}
	if len(s.v) != 2 || cap(s.v) != 2 || s.dropped != 3 {
		t.Errorf("len %d cap %d dropped %d, want 2 2 3", len(s.v), cap(s.v), s.dropped)
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "a.inner", Start: 12, End: 20, Parent: 1},
		{Name: "b", Start: 40, End: 70, Parent: 0},
	}
	want := []int64{50, 12, 8, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestSelfTimesOverlapAndClip(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 60, Parent: 0},
		{Name: "b", Start: 50, End: 80, Parent: 0},    // overlaps a: 50..60 counts once
		{Name: "c", Start: 90, End: 130, Parent: 0},   // sticks out: clipped at 100
		{Name: "d", Start: 20, End: 30, Parent: 0},    // inside a: adds nothing
		{Name: "other", Start: 0, End: 5, Parent: -1}, // childless
	}
	got := selfTimes(spans)
	if got[0] != 100-(70+10) {
		t.Errorf("root self time = %d, want 20", got[0])
	}
	if got[5] != 5 {
		t.Errorf("childless span self time = %d, want its duration 5", got[5])
	}
}

func TestSliceRecCutsWindow(t *testing.T) {
	r := newSliceRec(100, 40, 4) // window 100..140 in four slices of 10
	var c counters
	for now := int64(0); ; now += 5 {
		c.ops++
		if !r.tick(now, c) {
			break
		}
	}
	// One op per 5 ns: 2 ops per slice, 8 in the window.
	if ops, _, ok := windowTotals([]*sliceRec{r}); !ok || ops != 8 {
		t.Errorf("window totals: %d ops, complete %v; want 8, true", ops, ok)
	}
	for i, n := range sliceCounts([]*sliceRec{r}, func(c counters) int64 { return c.ops }) {
		if n != 2 {
			t.Errorf("slice %d holds %v ops, want 2", i, n)
		}
	}
}

// A worker stalled across two boundaries notes both, with the same
// counters: the stalled slice shows a count of zero instead of vanishing.
func TestSliceRecStall(t *testing.T) {
	r := newSliceRec(0, 30, 3)
	r.tick(0, counters{ops: 0})
	r.tick(25, counters{ops: 10}) // crossed 10 and 20 at once
	r.tick(30, counters{ops: 12})
	counts := sliceCounts([]*sliceRec{r}, func(c counters) int64 { return c.ops })
	if counts[0] != 10 || counts[1] != 0 || counts[2] != 2 {
		t.Errorf("counts = %v, want [10 0 2]", counts)
	}
	if got := medianRate(counts, 10); !near(got, 2/10e-9) {
		t.Errorf("median rate = %v, want %v", got, 2/10e-9)
	}
}

func TestIDSetFindsDuplicatesAndPhantoms(t *testing.T) {
	val := func(gen int, serial int64) []byte {
		v := make([]byte, 16)
		putID(v, makeID(gen, serial))
		return v
	}
	s := newIDSet(2, 128)
	for i := int64(0); i < 100; i++ {
		s.deliver(val(0, i))
	}
	if bad := s.check([]int64{100, 0}, true); len(bad) != 0 {
		t.Fatalf("clean history reported %v", bad)
	}
	// Not everything delivered yet is fine while the queue still holds it...
	if bad := s.check([]int64{120, 0}, false); len(bad) != 0 {
		t.Errorf("undrained history reported %v", bad)
	}
	// ...and a violation once it has been drained.
	if bad := s.check([]int64{120, 0}, true); len(bad) != 1 {
		t.Errorf("lost ids: got %v", bad)
	}
	s.deliver(val(0, 5))
	if bad := s.check([]int64{100, 0}, true); len(bad) != 1 {
		t.Errorf("double delivery: got %v", bad)
	}
	s = newIDSet(2, 128)
	s.deliver(val(1, 3)) // generator 1 inserted nothing
	s.deliver(val(7, 0)) // no such generator
	s.deliver([]byte{1})
	if bad := s.check([]int64{0, 0}, false); len(bad) != 2 {
		t.Errorf("phantoms: got %v", bad)
	}
}
