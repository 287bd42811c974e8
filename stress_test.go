package skipqueue_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"skipqueue"
	"skipqueue/internal/backends"
	"skipqueue/internal/xrand"
)

// TestStressChurnMatrix is the table-driven churn matrix: every backend
// pqd serves × 1..16 goroutines under a mixed Insert/DeleteMin/Peek
// workload, followed by an exact multiset reconciliation — every pushed
// value is delivered or drained exactly once, and nothing else ever
// appears. The scheduled CI stress job runs this with -race -count=5;
// -short keeps the tier-1 and race-PR runs fast.
func TestStressChurnMatrix(t *testing.T) {
	goroutines := []int{1, 2, 4, 8, 16}
	perWorker := uint64(2000)
	if testing.Short() {
		goroutines = []int{1, 4}
		perWorker = 500
	}
	for _, row := range backends.Rows {
		for _, g := range goroutines {
			t.Run(fmt.Sprintf("%s/g%d", row.Name, g), func(t *testing.T) {
				q := row.New(backends.Params{Shards: 8, ElimSlots: 4, SprayK: 8,
					Opts: []skipqueue.Option{skipqueue.WithSeed(1)}})
				churn(t, q, g, perWorker)
			})
		}
	}
}

// churn runs the mixed workload and reconciles. Values are globally unique
// 8-byte ids (worker index × stride + op index), so multiset conservation
// reduces to set equality over delivered ids.
func churn(t *testing.T, q backends.Queue, workers int, perWorker uint64) {
	var mu sync.Mutex
	delivered := map[uint64]bool{}
	pushed := workers * int(perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewRand(uint64(w)*0x9e3779b97f4a7c15 + 1)
			local := make([]uint64, 0, perWorker)
			for i := uint64(0); i < perWorker; i++ {
				id := uint64(w)*perWorker*16 + i
				q.Push(rng.Int63()%4096, binary.BigEndian.AppendUint64(nil, id))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4, 5: // pop often enough to churn, rarely enough to keep a backlog
					if _, v, ok := q.Pop(); ok {
						local = append(local, binary.BigEndian.Uint64(v))
					}
				case 6:
					q.Peek() // advisory; must not disturb conservation
				case 7:
					_ = q.Len()
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for _, v := range local {
				if delivered[v] {
					t.Errorf("id %d delivered twice", v)
					return
				}
				delivered[v] = true
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for {
		_, v, ok := q.Pop()
		if !ok {
			break
		}
		if id := binary.BigEndian.Uint64(v); delivered[id] {
			t.Fatalf("id %d delivered twice (drain)", id)
		} else {
			delivered[id] = true
		}
	}
	if len(delivered) != pushed {
		t.Fatalf("delivered %d distinct ids, want %d", len(delivered), pushed)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len after drain = %d, want 0", n)
	}
}
