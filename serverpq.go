package skipqueue

import (
	"encoding/binary"
	"sync/atomic"

	"skipqueue/internal/glheap"
	"skipqueue/internal/lockfree"
)

// This file adapts the queue families that have map (unique-key) semantics
// to the multiset Push/Pop/Peek/Len surface that PQ offers and that the
// pqd server subsystem (internal/server.Backend) consumes. PQ's skiplist
// orders by (priority, sequence number) natively; these families (and
// SprayPQ) still order by one key, so each pushed element gets its
// (priority, global sequence) encoded into a string key (pqKey): duplicate
// priorities coexist and are delivered FIFO within a priority.
//
// *PQ[[]byte], *LockFreePQ[[]byte] and *GlobalHeapPQ[[]byte] all satisfy
// internal/server.Backend directly; cmd/pqd selects between them with its
// -backend flag.

// pqKey encodes (priority, seq) as a 16-byte string that sorts
// lexicographically in (priority, seq) order. The priority's sign bit is
// flipped so negative priorities sort before positive ones.
func pqKey(priority int64, seq uint64) string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(priority)^(1<<63))
	binary.BigEndian.PutUint64(b[8:], seq)
	return string(b[:])
}

// pqPriority decodes the priority from a composite key. It reads the bytes
// directly off the string: a []byte(key) conversion here allocates a copy on
// every Pop, and this sits on the hot path.
func pqPriority(key string) int64 {
	_ = key[7] // bounds hint
	u := uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 |
		uint64(key[3])<<32 | uint64(key[4])<<24 | uint64(key[5])<<16 |
		uint64(key[6])<<8 | uint64(key[7])
	return int64(u ^ (1 << 63))
}

// LockFreePQ is the multiset layer over LockFree, the CAS-based skiplist
// queue: PQ's semantics (duplicate priorities, FIFO within a priority) with
// LockFree's progress guarantee. Construct with NewLockFreePQ. All methods
// are safe for concurrent use.
type LockFreePQ[V any] struct {
	q   *lockfree.Queue[string, V]
	seq atomic.Uint64
}

// NewLockFreePQ returns an empty lock-free multiset priority queue. It
// accepts the same options as NewLockFree.
func NewLockFreePQ[V any](opts ...Option) *LockFreePQ[V] {
	inner := NewLockFree[string, V](opts...)
	return &LockFreePQ[V]{q: inner.q}
}

// Push adds value with the given priority. Duplicate priorities are fine.
func (pq *LockFreePQ[V]) Push(priority int64, value V) {
	pq.q.Insert(pqKey(priority, pq.seq.Add(1)), value)
}

// Pop removes and returns an element with the minimum priority; earliest
// pushed wins among equals. ok is false when the queue is empty.
func (pq *LockFreePQ[V]) Pop() (priority int64, value V, ok bool) {
	k, v, ok := pq.q.DeleteMin()
	if !ok {
		return 0, value, false
	}
	return pqPriority(k), v, true
}

// Peek returns the minimum-priority element without removing it (advisory
// under concurrency).
func (pq *LockFreePQ[V]) Peek() (priority int64, value V, ok bool) {
	k, v, ok := pq.q.PeekMin()
	if !ok {
		return 0, value, false
	}
	return pqPriority(k), v, true
}

// Len returns the number of elements (snapshot).
func (pq *LockFreePQ[V]) Len() int { return pq.q.Len() }

// Snapshot reads the underlying queue's observability probes.
func (pq *LockFreePQ[V]) Snapshot() Snapshot { return pq.q.ObsSnapshot() }

// GlobalHeapPQ is the multiset layer over GlobalLockHeap, the single-lock
// binary heap baseline. It exists so pqd can serve the naive baseline for
// apples-to-apples load tests. Construct with NewGlobalHeapPQ. All methods
// are safe for concurrent use.
type GlobalHeapPQ[V any] struct {
	h   *glheap.Heap[string, V]
	seq atomic.Uint64
}

// NewGlobalHeapPQ returns an empty single-lock multiset priority queue. Of
// the options only WithMetrics applies.
func NewGlobalHeapPQ[V any](opts ...Option) *GlobalHeapPQ[V] {
	h := glheap.New[string, V]()
	if baselineMetrics(opts) {
		h.EnableMetrics()
	}
	return &GlobalHeapPQ[V]{h: h}
}

// Push adds value with the given priority.
func (pq *GlobalHeapPQ[V]) Push(priority int64, value V) {
	pq.h.Insert(pqKey(priority, pq.seq.Add(1)), value)
}

// Pop removes and returns an element with the minimum priority.
func (pq *GlobalHeapPQ[V]) Pop() (priority int64, value V, ok bool) {
	k, v, ok := pq.h.DeleteMin()
	if !ok {
		return 0, value, false
	}
	return pqPriority(k), v, true
}

// Peek returns the minimum-priority element without removing it.
func (pq *GlobalHeapPQ[V]) Peek() (priority int64, value V, ok bool) {
	k, v, ok := pq.h.PeekMin()
	if !ok {
		return 0, value, false
	}
	return pqPriority(k), v, true
}

// Len returns the number of elements.
func (pq *GlobalHeapPQ[V]) Len() int { return pq.h.Len() }

// Snapshot reads the underlying heap's observability probes.
func (pq *GlobalHeapPQ[V]) Snapshot() Snapshot { return pq.h.ObsSnapshot() }

var (
	_ Instrumented = (*LockFreePQ[int])(nil)
	_ Instrumented = (*GlobalHeapPQ[int])(nil)
)
