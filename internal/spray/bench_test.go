package spray

import (
	"testing"

	"skipqueue/internal/xrand"
)

// BenchmarkSprayChurn is the scan-path hot loop: one push + one pop per
// iteration against a standing backlog. A local probe: the gated figure is
// the frontier's spray.ns_per_op (bench/README.md).
func BenchmarkSprayChurn(b *testing.B) {
	q := New[int64](Config{K: 8, Seed: 1})
	for i := 0; i < 1000; i++ {
		q.Push(int64(i), int64(i))
	}
	rng := xrand.NewRand(1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := rng.Int63() % (1 << 40)
		q.Push(k, k)
		q.Pop()
	}
}
