// Benchmarks for the secondary structures (PQ, Bounded) and for the
// simulator's own event throughput. The figure-by-figure reproductions live
// in bench_test.go.
package skipqueue

import (
	"sync/atomic"
	"testing"

	"skipqueue/internal/lockfree"
	"skipqueue/internal/sim"
	"skipqueue/internal/xrand"
)

// BenchmarkPQMixed measures the multiset adapter (native (priority, seq)
// order) on the standard mixed workload.
func BenchmarkPQMixed(b *testing.B) {
	pq := NewPQ[int64](WithSeed(1))
	rng := xrand.NewRand(77)
	for i := 0; i < 1000; i++ {
		pq.Push(rng.Int63()%(1<<30), 0)
	}
	b.ResetTimer()
	var seed atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		r := xrand.NewRand(seed.Add(1))
		for pb.Next() {
			if r.Bool(0.5) {
				pq.Push(r.Int63()%(1<<30), 1)
			} else {
				pq.Pop()
			}
		}
	})
}

// BenchmarkBoundedVsGeneral pits the bounded-range bin queue against the
// general SkipQueue on a workload the bounded design was built for: eight
// fixed priority classes. The bin queue should win comfortably — the paper's
// point is that this advantage evaporates the moment the priority range is
// unbounded.
func BenchmarkBoundedVsGeneral(b *testing.B) {
	b.Run("Bounded", func(b *testing.B) {
		q := NewBounded[int64](8)
		for i := 0; i < 1000; i++ {
			q.Insert(i%8, int64(i))
		}
		var seed atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := xrand.NewRand(seed.Add(1))
			for pb.Next() {
				if r.Bool(0.5) {
					q.Insert(r.Intn(8), 1)
				} else {
					q.DeleteMin()
				}
			}
		})
	})
	b.Run("SkipQueuePQ", func(b *testing.B) {
		q := NewPQ[int64](WithSeed(1))
		for i := 0; i < 1000; i++ {
			q.Push(int64(i%8), int64(i))
		}
		var seed atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := xrand.NewRand(seed.Add(1))
			for pb.Next() {
				if r.Bool(0.5) {
					q.Push(int64(r.Intn(8)), 1)
				} else {
					q.Pop()
				}
			}
		})
	})
}

// BenchmarkLockFreeVsLockBased compares the paper's lock-based SkipQueue,
// in both ordering modes, with the strict lock-free skiplist
// (internal/lockfree) on the small-structure mixed workload.
func BenchmarkLockFreeVsLockBased(b *testing.B) {
	cases := []struct {
		name  string
		build func() pqUnderTest
	}{
		{"LockBased-Strict", func() pqUnderTest { return benchSkipQ{New[int64, int64](WithSeed(1))} }},
		{"LockBased-Relaxed", func() pqUnderTest { return benchSkipQ{New[int64, int64](WithSeed(1), WithRelaxed())} }},
		{"LockFree-Strict", func() pqUnderTest { return benchLockFree{lockfree.New[int64, int64](lockfree.Config{Seed: 1})} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			build := func() pqUnderTest {
				q := c.build()
				rng := xrand.NewRand(77)
				for i := 0; i < 50; i++ {
					q.insert(rng.Int63()%(1<<40), 0)
				}
				return q
			}
			runMixed(b, build, 0.5, 100)
		})
	}
}

type benchLockFree struct{ q *lockfree.Queue[int64, int64] }

func (s benchLockFree) insert(k, v int64)        { s.q.Insert(k, v) }
func (s benchLockFree) deleteMin() (int64, bool) { k, _, ok := s.q.DeleteMin(); return k, ok }

// BenchmarkSimulatorEvents reports the simulator's raw event throughput:
// one op = one shared access by one of 64 virtual processors. This bounds
// how fast the figure reproductions can run.
func BenchmarkSimulatorEvents(b *testing.B) {
	m := sim.New(sim.Defaults(64))
	words := make([]*sim.Word, 1024)
	for i := range words {
		words[i] = m.NewWord(int64(0))
	}
	per := b.N/64 + 1
	b.ResetTimer()
	m.Run(func(p *sim.Proc) {
		r := p.Rand
		for i := 0; i < per; i++ {
			p.Read(words[r.Intn(len(words))])
		}
	})
}
