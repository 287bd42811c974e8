package skipqueue

import (
	"sync/atomic"

	"skipqueue/internal/core"
	"skipqueue/internal/glheap"
)

// seqQueue is what the multiset adapter needs of a structure that orders
// natively by (priority, seq): core.Queue and glheap.Heap. R is
// InsertSeq's result, which differs between them and which the
// adapter ignores, since every Push takes a fresh seq.
type seqQueue[V, R any] interface {
	InsertSeq(priority int64, seq uint64, value V) R
	DeleteMin() (priority int64, value V, ok bool)
	PeekMin() (priority int64, value V, ok bool)
	Len() int
	ObsSnapshot() Snapshot
}

// multisetPQ is the one multiset adapter: each pushed element draws the
// next sequence number, so elements order first by priority, then by
// arrival, and duplicate priorities coexist. PQ and GlobalHeapPQ embed it.
type multisetPQ[Q seqQueue[V, R], V, R any] struct {
	q       Q
	metrics bool // WithMetrics: Snapshot publishes q's probes
	// seq is written by every Push; the padding keeps it off the line of
	// q, which every operation reads.
	_   [64]byte
	seq atomic.Uint64
}

// Push adds value with the given priority. Duplicate priorities are fine.
func (pq *multisetPQ[Q, V, R]) Push(priority int64, value V) {
	pq.q.InsertSeq(priority, pq.seq.Add(1), value)
}

// Pop removes and returns an element with the minimum priority. Among equal
// priorities, the earliest pushed wins. ok is false when the queue is empty.
func (pq *multisetPQ[Q, V, R]) Pop() (priority int64, value V, ok bool) {
	return pq.q.DeleteMin()
}

// Peek returns the minimum-priority element without removing it (advisory
// under concurrency).
func (pq *multisetPQ[Q, V, R]) Peek() (priority int64, value V, ok bool) {
	return pq.q.PeekMin()
}

// Len returns the number of elements (exact when quiescent).
func (pq *multisetPQ[Q, V, R]) Len() int { return pq.q.Len() }

// Snapshot reads the underlying structure's observability probes
// (zero-valued without WithMetrics).
func (pq *multisetPQ[Q, V, R]) Snapshot() Snapshot { return published(pq.metrics, pq.q.ObsSnapshot) }

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
// PQ and GlobalHeapPQ are the same multiset layer over the two queue
// families that order by (priority, seq). A *PQ[[]byte], like the other,
// satisfies internal/multiset.Queue, so it can be handed directly to the
// pqd network daemon (cmd/pqd).
type PQ[V any] struct {
	multisetPQ[*core.Queue[int64, V], V, core.InsertResult]
}

// NewPQ returns an empty multiset priority queue.
func NewPQ[V any](opts ...Option) *PQ[V] {
	o := resolve(opts)
	pq := new(PQ[V])
	pq.q, pq.metrics = core.New[int64, V](o.Config), o.metrics
	return pq
}

// Stats returns the underlying queue's operation counters.
func (pq *PQ[V]) Stats() Stats { return pq.q.Stats() }

// Load fills an empty PQ with n elements in one pass: at(i) returns the
// i-th, and priorities must not decrease with i. Equal priorities drain in
// index order, as if pushed one by one in that order, and the resulting
// queue is the one those Pushes would build. Load must finish before the
// queue is shared between goroutines; it panics on a non-empty queue or
// a decreasing priority.
func (pq *PQ[V]) Load(n int, at func(i int) (priority int64, value V)) {
	base := pq.seq.Add(uint64(n)) - uint64(n)
	pq.q.Load(n, func(i int) (int64, uint64, V) {
		priority, value := at(i)
		return priority, base + uint64(i) + 1, value
	})
}

// GlobalHeapPQ is the multiset layer over GlobalLockHeap, the single-lock
// binary heap baseline. It exists so pqd can serve the naive baseline for
// apples-to-apples load tests. Construct with NewGlobalHeapPQ. All methods
// are safe for concurrent use.
type GlobalHeapPQ[V any] struct {
	multisetPQ[*glheap.Heap[int64, V], V, bool]
}

// NewGlobalHeapPQ returns an empty single-lock multiset priority queue. Of
// the options only WithMetrics applies.
func NewGlobalHeapPQ[V any](opts ...Option) *GlobalHeapPQ[V] {
	pq := new(GlobalHeapPQ[V])
	pq.q, pq.metrics = NewGlobalLockHeap[int64, V](opts...).h, resolve(opts).metrics
	return pq
}
