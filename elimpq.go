package skipqueue

import "skipqueue/internal/elim"

// ElimPQ is the elimination front-end of internal/elim layered over the
// strict multiset PQ: an Insert whose priority is at or below the queue's
// current minimum and a concurrent Pop can meet in a small exchanger array
// and cancel directly, never touching the queue. On mixed workloads whose
// new priorities keep arriving at the front — discrete-event simulation
// near the simulation horizon, branch-and-bound with tight bounds — this
// removes the contended head from the hot path entirely; everything else
// falls through to the wrapped queue unchanged.
//
// The combined structure still satisfies the paper's Definition 1: an
// eliminated pair serializes as Insert(k) immediately followed by
// DeleteMin -> k at the exchange, and the delete-side eligibility check
// (one PeekMin taken after the Pop began) guarantees no smaller must-see
// element is bypassed — see internal/elim's package comment for the full
// argument and internal/lincheck for the machine-checked witness.
//
// *ElimPQ[[]byte] satisfies internal/multiset.Queue, so pqd can serve it
// (-backend elim). All methods are safe for concurrent use.
type ElimPQ[V any] struct {
	e       *elim.PQ[V]
	inner   *PQ[V]
	metrics bool
}

// NewElimPQ returns an elimination front-end over a strict multiset PQ.
// slots is the exchanger array length (0 selects one slot per core, minimum
// 4); the options configure the inner queue, with WithMetrics also
// publishing the front-end's own "skipqueue.elim" probe set.
func NewElimPQ[V any](slots int, opts ...Option) *ElimPQ[V] {
	o := resolve(opts)
	inner := NewPQ[V](opts...)
	e := elim.New[V](inner, elim.Config{Slots: slots, Flight: o.Flight})
	return &ElimPQ[V]{e: e, inner: inner, metrics: o.metrics}
}

// Push adds value with the given priority, through the exchanger when an
// eligible Pop arrives in time, through the inner queue otherwise.
func (pq *ElimPQ[V]) Push(priority int64, value V) { pq.e.Push(priority, value) }

// Pop removes and returns a minimal element: a waiting eliminable Push's if
// one is in the exchanger, the inner queue's minimum otherwise. ok is false
// only when the queue is empty and no offer is waiting.
func (pq *ElimPQ[V]) Pop() (priority int64, value V, ok bool) { return pq.e.Pop() }

// Peek returns the inner queue's minimum without removing it (advisory
// under concurrency; offers waiting in the exchanger belong to Pushes that
// have not returned and are not visible).
func (pq *ElimPQ[V]) Peek() (priority int64, value V, ok bool) { return pq.e.Peek() }

// Len returns the inner queue's length (exact when quiescent).
func (pq *ElimPQ[V]) Len() int { return pq.e.Len() }

// Slots returns the exchanger array length.
func (pq *ElimPQ[V]) Slots() int { return pq.e.Slots() }

// Snapshot merges the front-end's "skipqueue.elim" probes (exchange hits,
// misses, timeouts, fall-throughs) with the inner queue's own snapshot.
// Zero-valued without WithMetrics.
func (pq *ElimPQ[V]) Snapshot() Snapshot {
	if !pq.metrics {
		return Snapshot{}
	}
	return pq.e.ObsSnapshot().Merge(pq.inner.Snapshot())
}

// Unwrap exposes the elimination layer for tests and harnesses that need
// its tracer hook or its direct probe set.
func (pq *ElimPQ[V]) Unwrap() *elim.PQ[V] { return pq.e }
