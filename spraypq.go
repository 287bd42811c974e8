package skipqueue

import "skipqueue/internal/spray"

// SprayPQ is the SprayList-style relaxed priority queue of internal/spray:
// one relaxed SkipQueue whose DeleteMin performs a randomized descending
// "spray" walk of height O(log p) and total jump budget O(log³ p), then
// claims a near-minimal node with the paper's logical-delete SWAP. Where
// ShardedPQ buys head parallelism with P independent queues, SprayPQ keeps
// one queue and decollides the deleters spatially; the delivered rank is
// O(p·log³ p) w.h.p. (see docs/ALGORITHMS.md §12 and internal/quality's
// spray envelope). Under low contention an adaptive collision EWMA
// routes Pop to the plain linear head scan instead, and EMPTY is only ever
// certified by that full scan — never by a failed spray. Peek returns the
// current head minimum. Snapshot publishes the skipqueue.spray set (walks,
// collisions, fallbacks, scan pops) merged with the underlying
// skipqueue.core probes; Unwrap exposes the internal queue's tracer hook
// and mode control.
//
// *SprayPQ[[]byte] satisfies internal/multiset.Queue, so pqd can serve it
// (-backend spray). Construct with NewSprayPQ. All methods are safe for
// concurrent use.
type SprayPQ[V any] struct {
	frontPQ[*spray.PQ[V], V]
}

// NewSprayPQ returns an empty spray queue shaped for k concurrent
// deleters (0 selects GOMAXPROCS). The usual options apply to the
// underlying skiplist; WithRelaxed is implied — a claim drawn from a
// random prefix cannot honor the timestamp mechanism's strict minimum.
func NewSprayPQ[V any](k int, opts ...Option) *SprayPQ[V] {
	o := resolve(opts)
	pq := new(SprayPQ[V])
	pq.q = spray.New[V](spray.Config{
		K:        k,
		MaxLevel: o.MaxLevel,
		P:        o.P,
		Seed:     o.Seed,
		Flight:   o.Flight,
	})
	return pq
}

// K returns the contention width the spray walk is shaped for.
func (pq *SprayPQ[V]) K() int { return pq.q.K() }
