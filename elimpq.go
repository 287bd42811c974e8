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
// argument and internal/lincheck for the machine-checked witness. Peek
// and Len read the inner queue: offers waiting in the exchanger belong to
// Pushes that have not returned and are not visible. Unwrap exposes the
// elimination layer's tracer hook and its direct probe set.
//
// *ElimPQ[[]byte] satisfies internal/multiset.Queue, so pqd can serve it
// (-backend elim). All methods are safe for concurrent use.
type ElimPQ[V any] struct {
	frontPQ[*elim.PQ[V], V]
	inner *PQ[V]
}

// NewElimPQ returns an elimination front-end over a strict multiset PQ.
// slots is the exchanger array length (0 selects one slot per core, minimum
// 4); the options configure the inner queue.
func NewElimPQ[V any](slots int, opts ...Option) *ElimPQ[V] {
	pq := &ElimPQ[V]{inner: NewPQ[V](opts...)}
	pq.q = elim.New[V](pq.inner, elim.Config{Slots: slots, Flight: resolve(opts).Flight})
	return pq
}

// Slots returns the exchanger array length.
func (pq *ElimPQ[V]) Slots() int { return pq.q.Slots() }

// Snapshot merges the front-end's "skipqueue.elim" probes (exchange hits,
// misses, timeouts, fall-throughs) with the inner queue's own snapshot.
func (pq *ElimPQ[V]) Snapshot() Snapshot { return pq.q.ObsSnapshot().Merge(pq.inner.Snapshot()) }
