// Native real-thread benchmarks mirroring every table and figure of the
// paper's evaluation (Section 5). The cycle-accurate reproduction of the
// 1..256-processor sweeps lives in cmd/skipbench (the host machine rarely
// has 256 cores); these benches exercise the same workloads — same initial
// sizes, same insert/delete mixes, same work periods — on real goroutines,
// with the paper's figure number in the benchmark name:
//
//	go test -bench=Fig -benchmem
//
// Ablation benches (timestamps, level parameters) follow the figure
// benches.
package skipqueue

import (
	"sync/atomic"
	"testing"

	"skipqueue/internal/xrand"
)

// pqUnderTest adapts the three structures to one benchmark loop.
type pqUnderTest interface {
	insert(k int64, v int64)
	deleteMin() (int64, bool)
}

type benchSkipQ struct{ q *Queue[int64, int64] }

func (s benchSkipQ) insert(k, v int64)        { s.q.Insert(k, v) }
func (s benchSkipQ) deleteMin() (int64, bool) { k, _, ok := s.q.DeleteMin(); return k, ok }

type benchHeap struct{ h *Heap[int64, int64] }

func (s benchHeap) insert(k, v int64)        { _ = s.h.Insert(k, v) }
func (s benchHeap) deleteMin() (int64, bool) { k, _, ok := s.h.DeleteMin(); return k, ok }

type benchFunnel struct{ f *FunnelList[int64, int64] }

func (s benchFunnel) insert(k, v int64)        { s.f.Insert(k, v) }
func (s benchFunnel) deleteMin() (int64, bool) { k, _, ok := s.f.DeleteMin(); return k, ok }

// benchStructures builds each structure fresh, prefilled with initial random
// keys.
func benchStructures(initial int, capacity int) map[string]func() pqUnderTest {
	prefill := func(q pqUnderTest) pqUnderTest {
		rng := xrand.NewRand(77)
		for i := 0; i < initial; i++ {
			q.insert(rng.Int63()%(1<<40), 0)
		}
		return q
	}
	return map[string]func() pqUnderTest{
		"SkipQueue":  func() pqUnderTest { return prefill(benchSkipQ{New[int64, int64](WithSeed(1))}) },
		"Heap":       func() pqUnderTest { return prefill(benchHeap{NewHeap[int64, int64](capacity)}) },
		"FunnelList": func() pqUnderTest { return prefill(benchFunnel{NewFunnelList[int64, int64]()}) },
	}
}

// localWork spins for roughly n "cycles" of local computation between queue
// operations, as in the paper's benchmark loop.
func localWork(n int64) int64 {
	var acc int64
	for i := int64(0); i < n; i++ {
		acc += i ^ (acc << 1)
	}
	return acc
}

var benchSink atomic.Int64

// runMixed is the paper's synthetic benchmark: alternate local work with a
// coin-flip Insert or DeleteMin of a uniformly random priority.
func runMixed(b *testing.B, build func() pqUnderTest, insertRatio float64, work int64) {
	b.Helper()
	q := build()
	b.ResetTimer()
	var seed atomic.Uint64
	b.RunParallel(func(pb *testing.PB) {
		rng := xrand.NewRand(seed.Add(1) * 0x9e3779b97f4a7c15)
		var acc int64
		for pb.Next() {
			acc += localWork(work)
			if rng.Float64() < insertRatio {
				q.insert(rng.Int63()%(1<<40), 1)
			} else {
				q.deleteMin()
			}
		}
		benchSink.Add(acc)
	})
}

// BenchmarkFig2WorkSweep is Figure 2: latency as the local work period
// varies, on the large (1000-element) SkipQueue.
func BenchmarkFig2WorkSweep(b *testing.B) {
	for _, work := range []int64{100, 1000, 2000, 3000, 4000, 5000, 6000} {
		b.Run(benchName("work", work), func(b *testing.B) {
			build := benchStructures(1000, 1<<21)["SkipQueue"]
			runMixed(b, build, 0.5, work)
		})
	}
}

// BenchmarkFig3Small is Figure 3: the small-structure benchmark (50 initial
// elements, 50% inserts) across all three structures.
func BenchmarkFig3Small(b *testing.B) {
	for name, build := range benchStructures(50, 1<<21) {
		b.Run(name, func(b *testing.B) { runMixed(b, build, 0.5, 100) })
	}
}

// BenchmarkFig4Large is Figure 4: the large-structure benchmark (1000
// initial elements, 50% inserts).
func BenchmarkFig4Large(b *testing.B) {
	for name, build := range benchStructures(1000, 1<<21) {
		b.Run(name, func(b *testing.B) { runMixed(b, build, 0.5, 100) })
	}
}

// BenchmarkFig5Deletes is Figure 5: 27000 initial elements and 70% deletes,
// Heap vs SkipQueue (the paper drops the FunnelList here, having shown it
// collapses on large structures).
func BenchmarkFig5Deletes(b *testing.B) {
	builds := benchStructures(27000, 1<<21)
	for _, name := range []string{"Heap", "SkipQueue"} {
		b.Run(name, func(b *testing.B) { runMixed(b, builds[name], 0.3, 100) })
	}
}

// relaxedPair builds the strict and relaxed SkipQueues for Figures 6-8.
func relaxedPair(initial int) map[string]func() pqUnderTest {
	build := func(opts ...Option) func() pqUnderTest {
		return func() pqUnderTest {
			q := New[int64, int64](opts...)
			rng := xrand.NewRand(77)
			for i := 0; i < initial; i++ {
				q.Insert(rng.Int63()%(1<<40), 0)
			}
			return benchSkipQ{q}
		}
	}
	return map[string]func() pqUnderTest{
		"Strict":  build(WithSeed(1)),
		"Relaxed": build(WithSeed(1), WithRelaxed()),
	}
}

// BenchmarkFig6RelaxedSmall is Figure 6: strict vs relaxed on the small
// structure.
func BenchmarkFig6RelaxedSmall(b *testing.B) {
	for name, build := range relaxedPair(50) {
		b.Run(name, func(b *testing.B) { runMixed(b, build, 0.5, 100) })
	}
}

// BenchmarkFig7RelaxedLarge is Figure 7: strict vs relaxed on the large
// structure.
func BenchmarkFig7RelaxedLarge(b *testing.B) {
	for name, build := range relaxedPair(1000) {
		b.Run(name, func(b *testing.B) { runMixed(b, build, 0.5, 100) })
	}
}

// BenchmarkFig8RelaxedDeletes is Figure 8: strict vs relaxed with 70%
// deletions on 27000 initial elements.
func BenchmarkFig8RelaxedDeletes(b *testing.B) {
	for name, build := range relaxedPair(27000) {
		b.Run(name, func(b *testing.B) { runMixed(b, build, 0.3, 100) })
	}
}

// BenchmarkLevelParams ablates the skiplist's two tuning knobs called out in
// DESIGN.md: the level probability p and the maximum level.
func BenchmarkLevelParams(b *testing.B) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"p0.50-max24", []Option{WithP(0.5), WithMaxLevel(24)}},
		{"p0.25-max24", []Option{WithP(0.25), WithMaxLevel(24)}},
		{"p0.50-max10", []Option{WithP(0.5), WithMaxLevel(10)}},
		{"p0.25-max10", []Option{WithP(0.25), WithMaxLevel(10)}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			build := func() pqUnderTest {
				q := New[int64, int64](append(c.opts, WithSeed(1))...)
				rng := xrand.NewRand(77)
				for i := 0; i < 1000; i++ {
					q.Insert(rng.Int63()%(1<<40), 0)
				}
				return benchSkipQ{q}
			}
			runMixed(b, build, 0.5, 100)
		})
	}
}

func benchName(prefix string, v int64) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return prefix + "-" + string(buf[i:])
}
