package skipqueue

import (
	"testing"

	"skipqueue/internal/xrand"
)

// BenchmarkSkipQueue measures the observability layer's cost on the mixed
// workload: the same queue and load without and with WithMetrics, and with
// a flight recorder. The queue counts always and WithMetrics only publishes
// the counts, so MetricsOff and MetricsOn run the same operation code and
// should read alike. A local probe: the figure of record is
// obs.overhead_share in the benchmark's traced run (bench/README.md).
func BenchmarkSkipQueue(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"MetricsOff", []Option{WithSeed(1)}},
		{"MetricsOn", []Option{WithSeed(1), WithMetrics()}},
		{"FlightOn", []Option{WithSeed(1), WithFlight(NewFlightRecorder("bench", 0, 4096))}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			q := New[int64, int64](mode.opts...)
			for i := int64(0); i < 1000; i++ {
				q.Insert(i*7919, i)
			}
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				r := xrand.NewRand(uint64(b.N))
				for pb.Next() {
					if r.Float64() < 0.5 {
						q.Insert(r.Int63()%(1<<40), 0)
					} else {
						q.DeleteMin()
					}
				}
			})
		})
	}
}

// BenchmarkPQPop isolates the composite-key decode on the Pop path; the
// decode must stay allocation-free (see TestPQKeyDecodeAllocFree).
func BenchmarkPQPop(b *testing.B) {
	pq := NewPQ[int64](WithSeed(1))
	for i := 0; i < b.N; i++ {
		pq.Push(int64(i%1024), int64(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pq.Pop()
	}
}
