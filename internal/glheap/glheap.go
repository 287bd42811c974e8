// Package glheap is the naive baseline underneath everything in the paper's
// related work: a sequential binary heap behind one global lock. The paper
// notes that a single-lock linked list "had already been shown to perform
// rather poorly" and the whole heap literature it cites exists to break this
// structure's serialization; it is implemented here so the benchmarks can
// show the gap that motivates both Hunt's fine-grained heap and the
// SkipQueue.
package glheap

import (
	"sync"
	"time"

	"skipqueue/internal/obs"
)

// ordered mirrors cmp.Ordered.
type ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}

// item is one element; items order by key, then by seq.
type item[K ordered, V any] struct {
	key K
	seq uint64
	val V
}

func (a *item[K, V]) less(b *item[K, V]) bool {
	return a.key < b.key || (a.key == b.key && a.seq < b.seq)
}

// Heap is a mutex-guarded binary min-heap (multiset semantics: duplicate
// keys coexist, ordered among themselves by seq). All methods are safe for
// concurrent use; all of them serialize on one lock, which is the point.
type Heap[K ordered, V any] struct {
	mu    sync.Mutex
	items []item[K, V]
	obs   probes
}

// probes are the heap's observability hooks, all nil until EnableMetrics.
// For a single-lock structure the only interesting signal IS the lock: how
// long operations wait for it, and how long they hold it.
type probes struct {
	set *obs.Set

	insertLat *obs.Hist // Insert, entry to unlocked
	deleteLat *obs.Hist // DeleteMin, entry to unlocked
	lockWait  *obs.Hist // time spent waiting for the global lock
}

func newProbes() probes {
	set := obs.NewSet("skipqueue.globallock")
	return probes{
		set:       set,
		insertLat: set.Durations("insert"),
		deleteLat: set.Durations("deletemin"),
		lockWait:  set.Durations("lock.wait"),
	}
}

// New returns an empty heap.
func New[K ordered, V any]() *Heap[K, V] {
	return &Heap[K, V]{}
}

// EnableMetrics turns on the observability probes. Call before the heap is
// shared between goroutines.
func (h *Heap[K, V]) EnableMetrics() { h.obs = newProbes() }

// ObsSnapshot reads every probe once (relaxed snapshot; see core.Queue.Stats
// for the discipline).
func (h *Heap[K, V]) ObsSnapshot() obs.Snapshot { return h.obs.set.Snapshot() }

// Len returns the number of elements, read under the lock.
func (h *Heap[K, V]) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.items)
}

// Insert adds an element; it is InsertSeq with seq 0.
func (h *Heap[K, V]) Insert(key K, val V) { h.InsertSeq(key, 0, val) }

// InsertSeq adds an element at position (key, seq): elements with equal
// keys leave in seq order, as in internal/core. It always reports true: a
// heap keeps duplicates, so every call adds an element.
func (h *Heap[K, V]) InsertSeq(key K, seq uint64, val V) bool {
	var t0 time.Time
	if h.obs.set.Enabled() {
		t0 = time.Now()
	}
	h.mu.Lock()
	h.obs.lockWait.Since(t0)
	h.items = append(h.items, item[K, V]{key, seq, val})
	h.siftUp(len(h.items) - 1)
	h.mu.Unlock()
	h.obs.insertLat.Since(t0)
	return true
}

// DeleteMin removes and returns the minimum element.
func (h *Heap[K, V]) DeleteMin() (key K, val V, ok bool) {
	var t0 time.Time
	if h.obs.set.Enabled() {
		t0 = time.Now()
	}
	h.mu.Lock()
	h.obs.lockWait.Since(t0)
	if len(h.items) == 0 {
		h.mu.Unlock()
		h.obs.deleteLat.Since(t0)
		return key, val, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.siftDown(0)
	}
	h.mu.Unlock()
	h.obs.deleteLat.Since(t0)
	return top.key, top.val, true
}

// PeekMin returns the minimum element without removing it.
func (h *Heap[K, V]) PeekMin() (key K, val V, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.items) == 0 {
		return key, val, false
	}
	return h.items[0].key, h.items[0].val, true
}

func (h *Heap[K, V]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.items[i].less(&h.items[parent]) {
			return
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *Heap[K, V]) siftDown(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.items[left].less(&h.items[smallest]) {
			smallest = left
		}
		if right < n && h.items[right].less(&h.items[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// CheckInvariants verifies the heap order.
func (h *Heap[K, V]) CheckInvariants() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 1; i < len(h.items); i++ {
		if h.items[i].less(&h.items[(i-1)/2]) {
			return false
		}
	}
	return true
}
