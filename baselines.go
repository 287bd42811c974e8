package skipqueue

import (
	"errors"

	"skipqueue/internal/cheap"
	"skipqueue/internal/funnel"
	"skipqueue/internal/glheap"
)

// This file exports the two baseline structures of the paper's evaluation so
// downstream users (and this repository's benchmarks) can compare against
// them without reaching into internal packages.

// ErrFull is returned by Heap.Insert when the fixed-capacity array is full —
// the pre-allocation requirement is one of the heap design's drawbacks the
// paper calls out.
var ErrFull = errors.New("skipqueue: heap is full")

// Heap is the concurrent heap of Hunt, Michael, Parthasarathy and Scott
// (IPL 1996): per-node locks, a short-duration global size lock, and
// bit-reversed insertion paths. It is the strongest heap-based competitor in
// the paper's evaluation. All methods are safe for concurrent use.
type Heap[K Ordered, V any] struct {
	h *cheap.Heap[K, V]
}

// NewHeap returns an empty concurrent heap holding at most capacity
// elements (rounded up to a full tree level; non-positive selects a default
// of about one million). Of the options only WithMetrics applies; the
// skiplist-shape options are ignored.
func NewHeap[K Ordered, V any](capacity int, opts ...Option) *Heap[K, V] {
	h := cheap.New[K, V](capacity)
	if resolve(opts).metrics {
		h.EnableMetrics()
	}
	return &Heap[K, V]{h: h}
}

// Insert adds an element, or returns ErrFull.
func (h *Heap[K, V]) Insert(key K, value V) error {
	if !h.h.Insert(key, value) {
		return ErrFull
	}
	return nil
}

// DeleteMin removes and returns the minimum element.
func (h *Heap[K, V]) DeleteMin() (key K, value V, ok bool) { return h.h.DeleteMin() }

// Len returns the number of elements.
func (h *Heap[K, V]) Len() int { return h.h.Len() }

// Cap returns the fixed capacity.
func (h *Heap[K, V]) Cap() int { return h.h.Cap() }

// HeapStats re-exports the heap's contention counters.
type HeapStats = cheap.Stats

// Stats returns a snapshot of the heap's operation counters.
func (h *Heap[K, V]) Stats() HeapStats { return h.h.Stats() }

// Snapshot reads the observability probes (zero-valued without WithMetrics).
func (h *Heap[K, V]) Snapshot() Snapshot { return h.h.ObsSnapshot() }

// GlobalLockHeap is the naive baseline: a sequential binary heap behind one
// global mutex (multiset semantics). Every operation serializes; it exists
// so benchmarks can show the gap that motivates both the Hunt heap's
// fine-grained locking and the SkipQueue. All methods are safe for
// concurrent use.
type GlobalLockHeap[K Ordered, V any] struct {
	h *glheap.Heap[K, V]
}

// NewGlobalLockHeap returns an empty single-lock heap. Of the options only
// WithMetrics applies.
func NewGlobalLockHeap[K Ordered, V any](opts ...Option) *GlobalLockHeap[K, V] {
	h := glheap.New[K, V]()
	if resolve(opts).metrics {
		h.EnableMetrics()
	}
	return &GlobalLockHeap[K, V]{h: h}
}

// Insert adds an element.
func (g *GlobalLockHeap[K, V]) Insert(key K, value V) { g.h.Insert(key, value) }

// DeleteMin removes and returns the minimum element.
func (g *GlobalLockHeap[K, V]) DeleteMin() (key K, value V, ok bool) { return g.h.DeleteMin() }

// PeekMin returns the minimum without removing it.
func (g *GlobalLockHeap[K, V]) PeekMin() (key K, value V, ok bool) { return g.h.PeekMin() }

// Len returns the number of elements.
func (g *GlobalLockHeap[K, V]) Len() int { return g.h.Len() }

// Snapshot reads the observability probes (zero-valued without WithMetrics).
func (g *GlobalLockHeap[K, V]) Snapshot() Snapshot { return g.h.ObsSnapshot() }

// FunnelList is a sorted linked-list priority queue whose single lock is
// shielded by a combining funnel (Shavit and Zemach). It is the fastest
// structure at low concurrency on small queues and degrades linearly with
// queue size — exactly the trade-off the paper's Figures 3 and 4 show.
// Unlike Queue it has multiset semantics. All methods are safe for
// concurrent use.
type FunnelList[K Ordered, V any] struct {
	l *funnel.List[K, V]
}

// NewFunnelList returns an empty FunnelList. Of the options only WithMetrics
// applies.
func NewFunnelList[K Ordered, V any](opts ...Option) *FunnelList[K, V] {
	return &FunnelList[K, V]{l: funnel.New[K, V](funnel.Config{
		Metrics: resolve(opts).metrics,
	})}
}

// Insert adds an element (duplicate keys coexist).
func (f *FunnelList[K, V]) Insert(key K, value V) { f.l.Insert(key, value) }

// DeleteMin removes and returns the minimum element.
func (f *FunnelList[K, V]) DeleteMin() (key K, value V, ok bool) { return f.l.DeleteMin() }

// Len returns the number of elements.
func (f *FunnelList[K, V]) Len() int { return f.l.Len() }

// FunnelStats re-exports the funnel's combining counters.
type FunnelStats = funnel.Stats

// Stats returns a snapshot of the funnel counters.
func (f *FunnelList[K, V]) Stats() FunnelStats { return f.l.Stats() }

// Snapshot reads the observability probes (zero-valued without WithMetrics).
func (f *FunnelList[K, V]) Snapshot() Snapshot { return f.l.ObsSnapshot() }
