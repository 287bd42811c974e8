package skipqueue

import "testing"

// BenchmarkElimHotKey is the elimination front-end's headline workload:
// 8-way parallel 50/50 push/pop on one hot priority, where every push is
// eligible to cancel against a concurrent pop. Strict is the bare multiset
// PQ (every op walks the skiplist head); Elim routes matched pairs through
// the exchanger. A local probe: the benchmark's frontier (elim.ns_per_op,
// elim.hit_share; bench/README.md) runs uniform keys and has no hot-key
// point yet.
func BenchmarkElimHotKey(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() multisetPQ
	}{
		{"Strict", func() multisetPQ { return NewPQ[uint64](WithSeed(1)) }},
		{"Elim", func() multisetPQ { return NewElimPQ[uint64](0, WithSeed(1)) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := tc.mk()
			// A starting backlog keeps pops from bottoming out on EMPTY
			// sweeps while the pusher side of the parallel pairs warms up.
			for i := 0; i < 64; i++ {
				q.Push(0, uint64(i))
			}
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				push := true
				for pb.Next() {
					if push {
						q.Push(0, 1)
					} else {
						q.Pop()
					}
					push = !push
				}
			})
		})
	}
}
