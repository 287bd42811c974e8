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
// certified by that full scan — never by a failed spray.
//
// *SprayPQ[[]byte] satisfies internal/multiset.Queue, so pqd can serve it
// (-backend spray). Construct with NewSprayPQ. All methods are safe for
// concurrent use.
type SprayPQ[V any] struct {
	q       *spray.PQ[V]
	metrics bool
}

// NewSprayPQ returns an empty spray queue shaped for k concurrent
// deleters (0 selects GOMAXPROCS). The usual options apply to the
// underlying skiplist; WithRelaxed is implied — a claim drawn from a
// random prefix cannot honor the timestamp mechanism's strict minimum.
func NewSprayPQ[V any](k int, opts ...Option) *SprayPQ[V] {
	o := resolve(opts)
	return &SprayPQ[V]{q: spray.New[V](spray.Config{
		K:        k,
		MaxLevel: o.MaxLevel,
		P:        o.P,
		Seed:     o.Seed,
		Flight:   o.Flight,
	}), metrics: o.metrics}
}

// Push adds value with the given priority. Duplicate priorities are fine.
func (pq *SprayPQ[V]) Push(priority int64, value V) { pq.q.Push(priority, value) }

// Pop removes and returns a small element (relaxed: one drawn from a
// random near-head prefix, not necessarily the global minimum). ok is
// false only after a full bottom-level scan found nothing.
func (pq *SprayPQ[V]) Pop() (priority int64, value V, ok bool) { return pq.q.Pop() }

// Peek returns the current head minimum without removing it (advisory
// under concurrency).
func (pq *SprayPQ[V]) Peek() (priority int64, value V, ok bool) { return pq.q.Peek() }

// Len returns the number of elements (exact when quiescent).
func (pq *SprayPQ[V]) Len() int { return pq.q.Len() }

// K returns the contention width the spray walk is shaped for.
func (pq *SprayPQ[V]) K() int { return pq.q.K() }

// Snapshot reads the observability probes: the skipqueue.spray set
// (walks, collisions, fallbacks, scan pops) merged with the underlying
// skipqueue.core probes. Zero-valued without WithMetrics.
func (pq *SprayPQ[V]) Snapshot() Snapshot { return published(pq.metrics, pq.q.ObsSnapshot) }

// Unwrap exposes the internal spray queue for tests and harnesses that
// need its tracer hook or mode control.
func (pq *SprayPQ[V]) Unwrap() *spray.PQ[V] { return pq.q }
