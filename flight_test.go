package skipqueue

import (
	"sync"
	"testing"

	"skipqueue/internal/flight"
)

// hammer drives push/pop pairs from workers goroutines until each has
// completed n operations, producing enough contention that every backend's
// retry paths fire.
func hammer(workers, n int, push func(int64), pop func() bool) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				push(base + int64(i))
				pop()
			}
		}(int64(w) * int64(n))
	}
	wg.Wait()
}

// TestFlightRecordsContention: WithFlight wires a recorder through every
// backend, and a contended run leaves the matching event kinds in the ring.
func TestFlightRecordsContention(t *testing.T) {
	const workers, ops = 8, 2000

	kindsOf := func(d FlightDump) map[flight.Kind]int {
		m := map[flight.Kind]int{}
		for _, e := range d.Events {
			m[e.Kind]++
		}
		return m
	}

	t.Run("core", func(t *testing.T) {
		fr := NewFlightRecorder("core", 0, 0)
		q := New[int64, int](WithFlight(fr), WithRelaxed())
		hammer(workers, ops,
			func(p int64) { q.Insert(p, 0) },
			func() bool { _, _, ok := q.DeleteMin(); return ok })
		d := fr.Snapshot()
		if q.Stats().LockRetries > 0 && kindsOf(d)[flight.KLockRetry] == 0 {
			t.Fatalf("lock retries counted but no KLockRetry events: %+v", kindsOf(d))
		}
	})

	t.Run("sharded", func(t *testing.T) {
		fr := NewFlightRecorder("sharded", 0, 0)
		q := NewShardedPQ[int](4, WithFlight(fr))
		// Drain an empty queue to force the sweep fallback deterministically.
		q.Pop()
		hammer(workers, ops,
			func(p int64) { q.Push(p, 0) },
			func() bool { _, _, ok := q.Pop(); return ok })
		d := fr.Snapshot()
		if kindsOf(d)[flight.KSweepFallback] == 0 {
			t.Fatalf("empty pop did not record KSweepFallback: %+v", kindsOf(d))
		}
	})

	t.Run("elim", func(t *testing.T) {
		fr := NewFlightRecorder("elim", 0, 0)
		q := NewElimPQ[int](8, WithFlight(fr), WithMetrics())
		hammer(workers, ops,
			func(p int64) { q.Push(p, 0) },
			func() bool { _, _, ok := q.Pop(); return ok })
		d := fr.Snapshot()
		if q.Snapshot().Counter("exchange.hits") > 0 && kindsOf(d)[flight.KElimExchange] == 0 {
			t.Fatalf("exchanges counted but no KElimExchange events: %+v", kindsOf(d))
		}
	})
}

// TestWithFlightNil: a nil recorder is the documented no-op — every backend
// constructs and runs without recording anything.
func TestWithFlightNil(t *testing.T) {
	q := New[int64, int](WithFlight(nil))
	q.Insert(1, 1)
	if _, _, ok := q.DeleteMin(); !ok {
		t.Fatal("queue with nil flight recorder lost an element")
	}
	s := NewShardedPQ[int](2, WithFlight(nil))
	s.Push(1, 1)
	if _, _, ok := s.Pop(); !ok {
		t.Fatal("sharded queue with nil flight recorder lost an element")
	}
}
