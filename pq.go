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

// multisetPQ is the adapter that draws a seq: each pushed element draws
// the next sequence number, so elements order first by priority, then by
// arrival, and duplicate priorities coexist. PQ and GlobalHeapPQ embed it.
// The front ends, whose internal queues are multisets already, embed
// frontPQ instead.
type multisetPQ[Q seqQueue[V, R], V, R any] struct {
	q Q
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

// Snapshot reads the underlying structure's observability probes. PQ's
// are always published; GlobalHeapPQ's are zero-valued without
// WithMetrics.
func (pq *multisetPQ[Q, V, R]) Snapshot() Snapshot { return pq.q.ObsSnapshot() }

// frontQueue is what the forwarding adapter needs of a front end's
// internal queue: sharded.PQ, spray.PQ and elim.PQ, each of which keeps
// multiset semantics itself.
type frontQueue[V any] interface {
	Push(priority int64, value V)
	Pop() (priority int64, value V, ok bool)
	Peek() (priority int64, value V, ok bool)
	Len() int
	ObsSnapshot() Snapshot
}

// frontPQ is the adapter that forwards: ShardedPQ, SprayPQ and ElimPQ
// embed it over their internal queue, and their type docs say which
// element Pop returns.
type frontPQ[Q frontQueue[V], V any] struct {
	q Q
}

// Push adds value with the given priority. Duplicate priorities are fine.
func (pq *frontPQ[Q, V]) Push(priority int64, value V) { pq.q.Push(priority, value) }

// Pop removes and returns an element: the minimum on ElimPQ, a small one
// on the relaxed ShardedPQ and SprayPQ. ok is false only after the front
// end's full scan found the queue empty.
func (pq *frontPQ[Q, V]) Pop() (priority int64, value V, ok bool) { return pq.q.Pop() }

// Peek returns a minimal element without removing it (advisory under
// concurrency).
func (pq *frontPQ[Q, V]) Peek() (priority int64, value V, ok bool) { return pq.q.Peek() }

// Len returns the number of elements (exact when quiescent).
func (pq *frontPQ[Q, V]) Len() int { return pq.q.Len() }

// Snapshot reads the internal queue's observability probes. ShardedPQ's
// and SprayPQ's fold in the core probes of their skiplists; ElimPQ
// overrides Snapshot to merge its inner PQ's.
func (pq *frontPQ[Q, V]) Snapshot() Snapshot { return pq.q.ObsSnapshot() }

// Unwrap exposes the internal queue for tests and harnesses that need its
// tracer hook, its mode control or its introspection.
func (pq *frontPQ[Q, V]) Unwrap() Q { return pq.q }

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
	pq := new(PQ[V])
	pq.q = core.New[int64, V](resolve(opts).Config)
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
	pq.q = NewGlobalLockHeap[int64, V](opts...).h
	return pq
}
