package skipqueue

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"skipqueue/internal/core"
	"skipqueue/internal/lincheck"
	"skipqueue/internal/lockfree"
)

// TestPushPopAllocs pins the allocation shape of the native (priority, seq)
// order: on a 1000-deep queue a Push allocates its node (the heap: at most
// its amortized slice growth) and nothing else, and a Pop allocates nothing.
func TestPushPopAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		pq   interface {
			Push(int64, []byte)
			Pop() (int64, []byte, bool)
		}
	}{
		{"PQ", NewPQ[[]byte](WithSeed(1))},
		{"ShardedPQ", NewShardedPQ[[]byte](4, WithSeed(1))},
		{"SprayPQ", NewSprayPQ[[]byte](4, WithSeed(1))},
		{"GlobalHeapPQ", NewGlobalHeapPQ[[]byte]()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			value := make([]byte, 16)
			next := int64(0)
			push := func() {
				next++
				tc.pq.Push(next*7919%1000, value)
			}
			for i := 0; i < 1000; i++ {
				push()
			}
			// Every tower, however tall, lives in its node's one block, so
			// each Push allocates exactly its node.
			if n := testing.AllocsPerRun(1000, push); n > 1 {
				t.Errorf("Push allocates %v times per call, want <= 1", n)
			}
			if n := testing.AllocsPerRun(1000, func() { tc.pq.Pop() }); n != 0 {
				t.Errorf("Pop allocates %v times per call, want 0", n)
			}
		})
	}
}

// TestPQDefinition1DuplicatePriorities records concurrent runs of the
// strict multiset queues in which eight goroutines push only four distinct
// priorities, and checks each against Definition 1 under the composite
// order: an element's identity and rank are its (priority, seq), packed
// order-preservingly into lincheck's int64 key. A traced sequential drain
// ends each run, so conservation is checked against an empty remainder.
func TestPQDefinition1DuplicatePriorities(t *testing.T) {
	rank := func(priority int64, seq uint64) int64 { return priority<<32 | int64(seq) }
	type strictPQ interface {
		Push(priority int64, value int64)
		Pop() (priority int64, value int64, ok bool)
		Len() int
	}
	rows := []struct {
		name string
		// new builds a queue whose tracer feeds record.
		new func(seed uint64, record func(lincheck.Op)) strictPQ
	}{
		{"PQ", func(seed uint64, record func(lincheck.Op)) strictPQ {
			pq := NewPQ[int64](WithSeed(seed))
			pq.q.SetTracer(func(ev core.TraceEvent[int64]) {
				record(lincheck.Op{
					Insert: ev.Insert, Key: rank(ev.Key, ev.Seq), OK: ev.OK,
					Stamp: ev.Stamp, Done: ev.Done, Start: ev.Start,
				})
			})
			return pq
		}},
		{"lockfree", func(seed uint64, record func(lincheck.Op)) strictPQ {
			pq := &lockfreeSeqPQ{q: lockfree.New[int64, int64](lockfree.Config{Seed: seed})}
			pq.q.SetTracer(func(ev lockfree.TraceEvent[int64]) {
				record(lincheck.Op{
					Insert: ev.Insert, Key: rank(ev.Key, ev.Seq), OK: ev.OK,
					Stamp: ev.Stamp, Done: ev.Done, Start: ev.Start,
				})
			})
			return pq
		}},
	}
	rounds := 10
	if testing.Short() {
		rounds = 3
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for round := 0; round < rounds; round++ {
				var mu sync.Mutex
				var history []lincheck.Op
				pq := row.new(uint64(round+1), func(op lincheck.Op) {
					mu.Lock()
					history = append(history, op)
					mu.Unlock()
				})

				var wg sync.WaitGroup
				for w := 0; w < 8; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(round*100 + w)))
						for i := 0; i < 1500; i++ {
							if rng.Intn(2) == 0 {
								pq.Push(int64(rng.Intn(4))-2, int64(i))
							} else {
								pq.Pop()
							}
						}
					}(w)
				}
				wg.Wait()
				for _, _, ok := pq.Pop(); ok; _, _, ok = pq.Pop() {
				}
				if pq.Len() != 0 {
					t.Fatalf("round %d: Len = %d after the drain", round, pq.Len())
				}

				if err := lincheck.Verify(history); err != nil {
					t.Fatalf("round %d: Definition 1 violated: %v", round, err)
				}
				if err := lincheck.VerifyConservation(history, nil); err != nil {
					t.Fatalf("round %d: conservation violated: %v", round, err)
				}
			}
		})
	}
}

// lockfreeSeqPQ pushes into the lock-free skiplist at (priority, seq) with
// a fresh seq per Push, as the multiset adapter does for core.
type lockfreeSeqPQ struct {
	q   *lockfree.Queue[int64, int64]
	seq atomic.Uint64
}

func (pq *lockfreeSeqPQ) Push(priority, value int64) { pq.q.InsertSeq(priority, pq.seq.Add(1), value) }
func (pq *lockfreeSeqPQ) Pop() (int64, int64, bool)  { return pq.q.DeleteMin() }
func (pq *lockfreeSeqPQ) Len() int                   { return pq.q.Len() }

// TestSharedWordsOwnLines: the adapter's seq, written by every Push, lies at
// least a cache line from q, which every operation reads.
func TestSharedWordsOwnLines(t *testing.T) {
	var pq multisetPQ[*core.Queue[int64, int], int, core.InsertResult]
	qEnd := unsafe.Offsetof(pq.q) + unsafe.Sizeof(pq.q)
	if seq := unsafe.Offsetof(pq.seq); seq < qEnd+64 {
		t.Fatalf("seq at offset %d, q ends at %d: want >= 64 B between them", seq, qEnd)
	}
}
