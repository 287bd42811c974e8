package core

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// sortedStream returns n positions with duplicate and negative keys and
// distinct seqs, in ascending (key, seq) order.
func sortedStream(seed int64, n int) []pos {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]pos, n)
	for i := range ps {
		ps[i] = pos{int64(rng.Intn(200) - 100), uint64(rng.Int63())}
	}
	slices.SortFunc(ps, func(a, b pos) int {
		if a.less(b) {
			return -1
		}
		if b.less(a) {
			return 1
		}
		return 0
	})
	return slices.CompactFunc(ps, func(a, b pos) bool { return a == b })
}

// TestLoadMatchesInsertSeq: over a sorted stream, Load builds the queue a
// sorted InsertSeq loop builds with the same Seed — the same bottom-level
// order, the same tower on every node, the same counts — and the loaded
// queue then churns concurrently like any other, strict and relaxed.
func TestLoadMatchesInsertSeq(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		cfg := Config{Seed: 9, Relaxed: relaxed}
		ps := sortedStream(3, 5000)
		loaded, inserted := New[int64, uint64](cfg), New[int64, uint64](cfg)
		loaded.Load(len(ps), func(i int) (int64, uint64, uint64) { return ps[i].key, ps[i].seq, ps[i].seq })
		for _, p := range ps {
			inserted.InsertSeq(p.key, p.seq, p.seq)
		}
		a, b := loaded.head.loadNext(0), inserted.head.loadNext(0)
		for i := 0; a != loaded.tail || b != inserted.tail; i++ {
			if a == loaded.tail || b == inserted.tail {
				t.Fatalf("relaxed=%v: bottom levels differ in length at node %d", relaxed, i)
			}
			if a.key != b.key || a.seq != b.seq || a.level() != b.level() {
				t.Fatalf("relaxed=%v: node %d loaded as (%d, %d) of height %d, inserted as (%d, %d) of height %d",
					relaxed, i, a.key, a.seq, a.level(), b.key, b.seq, b.level())
			}
			a, b = a.loadNext(0), b.loadNext(0)
		}
		for _, q := range []*Queue[int64, uint64]{loaded, inserted} {
			if n, err := q.checkLevels(); err != nil || n != len(ps) {
				t.Fatalf("relaxed=%v: checkLevels = %d, %v, want %d nodes", relaxed, n, err, len(ps))
			}
			if st := q.Stats(); st.Inserts != uint64(len(ps)) || q.Len() != len(ps) {
				t.Fatalf("relaxed=%v: Inserts = %d, Len = %d, want %d", relaxed, st.Inserts, q.Len(), len(ps))
			}
		}
		churn(t, loaded, ps)
	}
}

// churn runs concurrent inserts of fresh positions and DeleteMins over q,
// which holds exactly initial, then drains it: every position must come
// out exactly once, the drain in ascending order, with the levels intact.
func churn(t *testing.T, q *Queue[int64, uint64], initial []pos) {
	t.Helper()
	const workers, ops = 4, 3000
	var seq atomic.Uint64
	seq.Store(1 << 62) // above every seq of the stream
	var mu sync.Mutex
	want := map[pos]int{}
	for _, p := range initial {
		want[p]++
	}
	got := map[pos]int{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var ins, del []pos
			for i := 0; i < ops; i++ {
				if rng.Intn(2) == 0 {
					p := pos{int64(rng.Intn(300) - 150), seq.Add(1)}
					q.InsertSeq(p.key, p.seq, p.seq)
					ins = append(ins, p)
				} else if k, s, v, ok := q.DeleteMinSeq(); ok {
					if v != s {
						t.Errorf("DeleteMinSeq returned value %d for seq %d", v, s)
					}
					del = append(del, pos{k, s})
				}
			}
			mu.Lock()
			for _, p := range ins {
				want[p]++
			}
			for _, p := range del {
				got[p]++
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if n, err := q.checkLevels(); err != nil || n != q.Len() {
		t.Fatalf("after churn: checkLevels = %d, %v, Len %d", n, err, q.Len())
	}
	prev, first := pos{}, true
	for {
		k, s, _, ok := q.DeleteMinSeq()
		if !ok {
			break
		}
		p := pos{k, s}
		if !first && !prev.less(p) {
			t.Fatalf("drain returned %v after %v", p, prev)
		}
		prev, first = p, false
		got[p]++
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct positions came out, %d went in", len(got), len(want))
	}
	for p, n := range want {
		if got[p] != n {
			t.Fatalf("position %v came out %d times, went in %d", p, got[p], n)
		}
	}
}

// TestLoadTraces: Load stamps and traces every node like an Insert, so a
// strict DeleteMin that starts after it sees every loaded element.
func TestLoadTraces(t *testing.T) {
	q := New[int64, int](Config{Seed: 1})
	var events []TraceEvent[int64]
	q.SetTracer(func(ev TraceEvent[int64]) { events = append(events, ev) })
	q.Load(3, func(i int) (int64, uint64, int) { return int64(i - 1), 0, i })
	if len(events) != 3 {
		t.Fatalf("%d trace events, want 3", len(events))
	}
	for i, ev := range events {
		if !ev.Insert || !ev.OK || ev.Key != int64(i-1) || ev.Stamp <= 0 || ev.Done <= ev.Stamp || (i > 0 && ev.Stamp <= events[i-1].Done) {
			t.Fatalf("event %d = %+v after %+v", i, ev, events[max(i-1, 0)])
		}
	}
	if k, v, ok := q.DeleteMin(); !ok || k != -1 || v != 0 {
		t.Fatalf("DeleteMin = (%d, %d, %v), want (-1, 0, true)", k, v, ok)
	}
}

// TestLoadPanics: Load refuses a queue that already holds elements and a
// stream out of (key, seq) order, equal positions included.
func TestLoadPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	one := func(int) (int64, uint64, int) { return 1, 1, 0 }
	q := New[int64, int](Config{})
	q.Insert(5, 5)
	mustPanic("Load on a non-empty queue", func() { q.Load(1, one) })
	mustPanic("Load of a descending stream", func() {
		New[int64, int](Config{}).Load(2, func(i int) (int64, uint64, int) { return int64(-i), 0, 0 })
	})
	mustPanic("Load of a repeated position", func() { New[int64, int](Config{}).Load(2, one) })
	empty := New[int64, int](Config{})
	empty.Load(0, one)
	if empty.Len() != 0 {
		t.Fatalf("Len = %d after loading nothing", empty.Len())
	}
}

// BenchmarkDeep times one goroutine's Insert and DeleteMin on a queue of
// 2^19 elements built with Load, so the search path's cost beyond cache
// has a number of its own. Keys are spaced deep apart and inserts land
// uniformly between them; the queue is rebuilt, off the clock, after every
// deep/2 operations, so it always holds between 2^18 and 3·2^18 elements.
func BenchmarkDeep(b *testing.B) {
	const deep = 1 << 19
	build := func() *Queue[int64, []byte] {
		q := New[int64, []byte](Config{Seed: 1})
		q.Load(deep, func(i int) (int64, uint64, []byte) { return int64(i) * deep, 0, nil })
		return q
	}
	run := func(b *testing.B, op func(q *Queue[int64, []byte], i int)) {
		q := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%(deep/2) == deep/2-1 {
				b.StopTimer()
				q = build()
				b.StartTimer()
			}
			op(q, i)
		}
	}
	b.Run("insert", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		run(b, func(q *Queue[int64, []byte], i int) { q.InsertSeq(rng.Int63n(deep*deep), uint64(i)+1, nil) })
	})
	b.Run("deletemin", func(b *testing.B) {
		run(b, func(q *Queue[int64, []byte], _ int) { q.DeleteMin() })
	})
}
