package spray

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"skipqueue/internal/flight"
)

// TestSequentialScanOrder: in ModeScan the queue degenerates to the
// relaxed SkipQueue, so a quiescent drain is exactly sorted and
// FIFO among equal priorities.
func TestSequentialScanOrder(t *testing.T) {
	q := New[int](Config{K: 8, Seed: 1, Mode: ModeScan})
	prios := []int64{5, -3, 5, 0, 99, -3, 7}
	for i, p := range prios {
		q.Push(p, i)
	}
	want := append([]int64(nil), prios...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		p, _, ok := q.Pop()
		if !ok || p != w {
			t.Fatalf("pop %d = %d/%v, want %d", i, p, ok, w)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

// TestSprayModeConservation: forcing the spray path on every Pop must
// still deliver the exact multiset, and EMPTY only at the true end —
// the scan fallback certifies it even when every walk comes up dry.
func TestSprayModeConservation(t *testing.T) {
	q := New[int](Config{K: 8, Seed: 7, Mode: ModeSpray})
	const n = 2000
	pushed := map[int64]int{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		p := rng.Int63n(500)
		pushed[p]++
		q.Push(p, i)
	}
	popped := map[int64]int{}
	for i := 0; i < n; i++ {
		p, _, ok := q.Pop()
		if !ok {
			t.Fatalf("false EMPTY with %d elements left", n-i)
		}
		popped[p]++
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop on drained queue succeeded")
	}
	for p, c := range pushed {
		if popped[p] != c {
			t.Fatalf("priority %d: pushed %d popped %d", p, c, popped[p])
		}
	}
	snap := q.ObsSnapshot()
	if snap.Counter("spray.walks") == 0 {
		t.Fatal("ModeSpray never sprayed")
	}
}

// TestEmptyQueue: EMPTY on a fresh queue in every mode, and the spray
// path records its scan fallback.
func TestEmptyQueue(t *testing.T) {
	for _, mode := range []Mode{ModeAdaptive, ModeSpray, ModeScan} {
		q := New[string](Config{K: 4, Mode: mode})
		if _, _, ok := q.Pop(); ok {
			t.Fatalf("mode %d: pop on empty succeeded", mode)
		}
		if q.ObsSnapshot().Counter("pop.empties") != 1 {
			t.Fatalf("mode %d: pop.empties not recorded", mode)
		}
		if mode == ModeSpray && q.ObsSnapshot().Counter("scan.fallbacks") != 1 {
			t.Fatalf("spray mode: empty Pop did not fall back to the scan")
		}
	}
}

// TestPeekLenEntries: the introspection surface agrees with the content.
func TestPeekLenEntries(t *testing.T) {
	q := New[int](Config{K: 4, Seed: 3})
	if _, _, ok := q.Peek(); ok {
		t.Fatal("peek on empty succeeded")
	}
	q.Push(30, 1)
	q.Push(10, 2)
	q.Push(20, 3)
	if p, v, ok := q.Peek(); !ok || p != 10 || v != 2 {
		t.Fatalf("Peek = %d/%d/%v, want 10/2/true", p, v, ok)
	}
	if q.Len() != 3 {
		t.Fatalf("Len = %d, want 3", q.Len())
	}
	es := q.Entries()
	if len(es) != 3 || es[0].Priority != 10 || es[1].Priority != 20 || es[2].Priority != 30 {
		t.Fatalf("Entries = %+v", es)
	}
	if es[0].Seq != 2 {
		t.Fatalf("Entries[0].Seq = %d, want 2", es[0].Seq)
	}
}

// TestTracerEvents: the tracer sees every op with monotone stamps and the
// Seq identity Push drew.
func TestTracerEvents(t *testing.T) {
	q := New[int](Config{K: 4, Seed: 5, Mode: ModeSpray})
	var evs []Event
	q.SetTracer(func(e Event) { evs = append(evs, e) })
	q.Push(10, 0)
	q.Push(20, 0)
	q.Pop()
	q.Pop()
	q.Pop() // EMPTY
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if i > 0 && e.Stamp <= evs[i-1].Stamp {
			t.Fatalf("stamps not monotone: %+v", evs)
		}
	}
	if !evs[0].Insert || evs[0].Priority != 10 || evs[0].Seq != 1 {
		t.Fatalf("insert event = %+v", evs[0])
	}
	if evs[2].Insert || !evs[2].OK {
		t.Fatalf("delete event = %+v", evs[2])
	}
	if evs[4].OK || evs[4].Insert {
		t.Fatalf("EMPTY event = %+v", evs[4])
	}
	if q.Stamp() <= evs[4].Stamp {
		t.Fatal("Stamp() did not advance past the traced history")
	}
}

// TestAdaptiveTrigger: the EWMA starts cold (scan path), heats past the
// threshold when Pops keep observing CAS failures, and cools back down.
func TestAdaptiveTrigger(t *testing.T) {
	q := New[int](Config{K: 8})
	if q.Contended() {
		t.Fatal("fresh queue reports contention")
	}
	for i := 0; i < 10; i++ {
		q.observe(4) // four observed CAS failures per Pop: hot
	}
	if !q.Contended() {
		t.Fatalf("EWMA %d did not cross threshold %d", q.ewma.Load(), int64(ewmaThreshold))
	}
	for i := 0; i < 64; i++ {
		q.observe(0) // quiet Pops: cools
	}
	if q.Contended() {
		t.Fatalf("EWMA %d did not decay below threshold", q.ewma.Load())
	}
}

// TestModeOverrides: ModeSpray and ModeScan pin Contended regardless of
// the EWMA.
func TestModeOverrides(t *testing.T) {
	qs := New[int](Config{K: 4, Mode: ModeSpray})
	if !qs.Contended() {
		t.Fatal("ModeSpray not contended")
	}
	qc := New[int](Config{K: 4, Mode: ModeScan})
	for i := 0; i < 10; i++ {
		qc.observe(100)
	}
	if qc.Contended() {
		t.Fatal("ModeScan reports contention")
	}
}

// TestSprayShape: the walk geometry follows the config (height log2(K)+1
// capped at MaxLevel, jump log²(K)+1, K defaulting to GOMAXPROCS≥2).
func TestSprayShape(t *testing.T) {
	q := New[int](Config{K: 16})
	if q.height != 5 || q.jump != 17 {
		t.Fatalf("K=16: height=%d jump=%d, want 5/17", q.height, q.jump)
	}
	q = New[int](Config{K: 16, MaxLevel: 3})
	if q.height != 3 {
		t.Fatalf("MaxLevel=3: height=%d, want 3", q.height)
	}
	q = New[int](Config{})
	if q.K() < 2 {
		t.Fatalf("default K = %d, want >= 2", q.K())
	}
	if log2ceil(1) != 0 || log2ceil(2) != 1 || log2ceil(5) != 3 {
		t.Fatal("log2ceil broken")
	}
}

// TestFlightFallback: a Pop whose sprays all fail records KSprayFallback.
func TestFlightFallback(t *testing.T) {
	fr := flight.New("spray-test", 1, 64)
	q := New[int](Config{K: 4, Mode: ModeSpray, Flight: fr})
	q.Pop() // empty: both walks fail, scan certifies EMPTY
	found := false
	for _, ev := range fr.Snapshot().Events {
		if ev.Kind == flight.KSprayFallback {
			found = true
		}
	}
	if !found {
		t.Fatal("no spray.fallback event recorded")
	}
}

// TestStressChurnSpray: race-clean concurrent churn with exact multiset
// accounting across all three modes (the nightly stress job matches this
// by the Churn pattern).
func TestStressChurnSpray(t *testing.T) {
	for _, mode := range []Mode{ModeAdaptive, ModeSpray, ModeScan} {
		q := New[int64](Config{K: 8, Seed: 11, Mode: mode})
		const workers, ops = 8, 3000
		var pushSum, popSum, popCount [workers]int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < ops; i++ {
					if rng.Intn(100) < 60 {
						p := rng.Int63n(100000)
						q.Push(p, p)
						pushSum[w] += p
					} else if p, v, ok := q.Pop(); ok {
						if v != p {
							panic("value does not match priority")
						}
						popSum[w] += p
						popCount[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		var pushed, popped, count int64
		for w := 0; w < workers; w++ {
			pushed += pushSum[w]
			popped += popSum[w]
			count += popCount[w]
		}
		for {
			p, _, ok := q.Pop()
			if !ok {
				break
			}
			popped += p
			count++
		}
		if pushed != popped {
			t.Fatalf("mode %d: priority sum mismatch: pushed %d popped %d", mode, pushed, popped)
		}
		if q.Len() != 0 {
			t.Fatalf("mode %d: Len = %d after drain", mode, q.Len())
		}
	}
}

// TestSprayPopAllocs: the forced spray path allocates nothing per Pop, as
// the scan path does (the root TestPushPopAllocs covers the adaptive mode).
func TestSprayPopAllocs(t *testing.T) {
	q := New[[]byte](Config{K: 8, Seed: 1, Mode: ModeSpray})
	value := make([]byte, 16)
	for i := int64(0); i < 3000; i++ {
		q.Push(i*7919%1000, value)
	}
	if n := testing.AllocsPerRun(1000, func() { q.Pop() }); n != 0 {
		t.Errorf("spray Pop allocates %v times per call, want 0", n)
	}
}
