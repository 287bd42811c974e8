package skipqueue

import (
	"sync/atomic"

	"skipqueue/internal/core"
)

// PQ is a concurrent priority queue with multiset semantics: any number of
// elements may share a priority, and equal-priority elements are delivered
// in insertion order (FIFO within a priority). It is the natural shape for
// the paper's motivating applications — discrete-event simulation and
// branch-and-bound — where many pending events or subproblems carry the same
// priority.
//
// PQ is a thin layer over the SkipQueue: the skiplist orders natively by
// (priority, sequence number), and each pushed element draws the next
// sequence number, so elements order first by priority, then by arrival.
//
// A *PQ[[]byte] satisfies internal/server.Backend, so it can be handed
// directly to the pqd network daemon (cmd/pqd); LockFreePQ and GlobalHeapPQ
// adapt the other queue families to the same surface.
type PQ[V any] struct {
	q   *core.Queue[int64, V]
	seq atomic.Uint64
}

// NewPQ returns an empty multiset priority queue.
func NewPQ[V any](opts ...Option) *PQ[V] {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return &PQ[V]{q: core.New[int64, V](cfg)}
}

// Push adds value with the given priority. Duplicate priorities are fine.
func (pq *PQ[V]) Push(priority int64, value V) {
	pq.q.InsertSeq(priority, pq.seq.Add(1), value)
}

// Pop removes and returns an element with the minimum priority. Among equal
// priorities, the earliest pushed wins. ok is false when the queue is empty.
func (pq *PQ[V]) Pop() (priority int64, value V, ok bool) {
	return pq.q.DeleteMin()
}

// Peek returns the minimum-priority element without removing it (advisory
// under concurrency).
func (pq *PQ[V]) Peek() (priority int64, value V, ok bool) {
	return pq.q.PeekMin()
}

// Len returns the number of elements (exact when quiescent).
func (pq *PQ[V]) Len() int { return pq.q.Len() }

// Stats returns the underlying queue's operation counters.
func (pq *PQ[V]) Stats() Stats { return pq.q.Stats() }

// Snapshot reads the underlying queue's observability probes (zero-valued
// without WithMetrics).
func (pq *PQ[V]) Snapshot() Snapshot { return pq.q.ObsSnapshot() }
