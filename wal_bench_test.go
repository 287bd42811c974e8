package skipqueue

import (
	"sync"
	"sync/atomic"
	"testing"

	"skipqueue/internal/wal"
)

// BenchmarkWALAppend measures the durable append path: one push record plus
// the Commit barrier, under both Commit contracts and at one and eight
// concurrent committers. Sync mode pays one group-commit fsync per batch —
// the eight-worker case is where the amortization shows, since all eight
// appends share each disk barrier. Async mode is the in-memory cost of the
// encode + batch handoff alone. rec/fsync is the group size each run
// reached, read off the log's append.records counter and sync.batch probe.
func BenchmarkWALAppend(b *testing.B) {
	value := make([]byte, 64)
	run := func(mode wal.Mode, workers int) func(*testing.B) {
		return func(b *testing.B) {
			l, err := wal.Open(wal.Config{Dir: b.TempDir(), Mode: mode, Metrics: true}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var id atomic.Uint64
			b.SetBytes(int64(len(value)))
			b.ResetTimer()
			if workers == 1 {
				for i := 0; i < b.N; i++ {
					l.AppendPush(id.Add(1), int64(i), value)
					if err := l.Commit(); err != nil {
						b.Fatal(err)
					}
				}
			} else {
				var wg sync.WaitGroup
				per := b.N / workers
				for w := 0; w < workers; w++ {
					n := per
					if w == 0 {
						n += b.N % workers
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							l.AppendPush(id.Add(1), int64(i), value)
							if err := l.Commit(); err != nil {
								b.Error(err)
								return
							}
						}
					}(n)
				}
				wg.Wait()
			}
			b.StopTimer()
			snap := l.Snapshot()
			if h, _ := snap.Hist("sync.batch"); h.Count > 0 {
				b.ReportMetric(float64(snap.Counter("append.records"))/float64(h.Count), "rec/fsync")
			}
		}
	}
	b.Run("sync-w1", run(wal.ModeSync, 1))
	b.Run("sync-w8", run(wal.ModeSync, 8))
	b.Run("async-w1", run(wal.ModeAsync, 1))
	b.Run("async-w8", run(wal.ModeAsync, 8))
}
