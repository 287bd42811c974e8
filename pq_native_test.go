package skipqueue

import (
	"math/rand"
	"sync"
	"testing"

	"skipqueue/internal/core"
	"skipqueue/internal/lincheck"
)

// TestPushPopAllocs pins the allocation shape of the native (priority, seq)
// order: on a 1000-deep queue a Push allocates its node and nothing else,
// and a Pop allocates nothing.
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
			// The average rounds down, which absorbs the one tower in 256
			// that outgrows the inline size classes and allocates twice.
			if n := testing.AllocsPerRun(1000, push); n > 1 {
				t.Errorf("Push allocates %v times per call, want <= 1", n)
			}
			if n := testing.AllocsPerRun(1000, func() { tc.pq.Pop() }); n != 0 {
				t.Errorf("Pop allocates %v times per call, want 0", n)
			}
		})
	}
}

// TestPQDefinition1DuplicatePriorities records a concurrent run of PQ in
// which eight goroutines push only four distinct priorities, and checks it
// against Definition 1 under the composite order: an element's identity and
// rank are its (priority, seq), packed order-preservingly into lincheck's
// int64 key.
func TestPQDefinition1DuplicatePriorities(t *testing.T) {
	rank := func(priority int64, seq uint64) int64 { return priority<<32 | int64(seq) }
	rounds := 10
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		pq := NewPQ[int64](WithSeed(uint64(round + 1)))
		var mu sync.Mutex
		var history []lincheck.Op
		pq.q.SetTracer(func(ev core.TraceEvent[int64]) {
			mu.Lock()
			history = append(history, lincheck.Op{
				Insert: ev.Insert, Key: rank(ev.Key, ev.Seq), OK: ev.OK,
				Stamp: ev.Stamp, Done: ev.Done, Start: ev.Start,
			})
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

		if err := lincheck.Verify(history); err != nil {
			t.Fatalf("round %d: Definition 1 violated: %v", round, err)
		}
		var remaining []int64
		pq.q.Each(func(priority int64, seq uint64) { remaining = append(remaining, rank(priority, seq)) })
		if err := lincheck.VerifyConservation(history, remaining); err != nil {
			t.Fatalf("round %d: conservation violated: %v", round, err)
		}
	}
}
