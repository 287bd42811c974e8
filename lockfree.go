package skipqueue

import "skipqueue/internal/lockfree"

// LockFree is the lock-free evolution of the SkipQueue: the same
// claim-then-unlink algorithm built on a CAS-based lock-free skiplist
// (markable references with helping), the design the paper's line of work
// led to (Sundell/Tsigas; Herlihy & Shavit's textbook queue; the JDK
// lineage). No operation ever blocks another: a preempted goroutine cannot
// stall the queue the way a preempted lock holder can.
//
// Semantics match Queue, including the strict/relaxed timestamp modes, with
// one difference: Insert of an existing unclaimed key leaves the old value
// in place (it reports false) rather than replacing it. Construct with
// NewLockFree. All methods are safe for concurrent use.
type LockFree[K Ordered, V any] struct {
	q       *lockfree.Queue[K, V]
	metrics bool
}

// NewLockFree returns an empty lock-free SkipQueue. It accepts the same
// options as New (WithRelaxed, WithMaxLevel, WithP, WithSeed, WithMetrics,
// WithFlight).
func NewLockFree[K Ordered, V any](opts ...Option) *LockFree[K, V] {
	o := resolve(opts)
	return &LockFree[K, V]{q: lockfree.New[K, V](lockfree.Config{
		MaxLevel: o.MaxLevel,
		P:        o.P,
		Relaxed:  o.Relaxed,
		Seed:     o.Seed,
		Flight:   o.Flight,
	}), metrics: o.metrics}
}

// Insert adds key with value. It reports false when an unclaimed equal key
// already exists (the existing element stays).
func (q *LockFree[K, V]) Insert(key K, value V) bool { return q.q.Insert(key, value) }

// DeleteMin removes and returns the minimum element (strict ordering per
// Definition 1 unless built with WithRelaxed).
func (q *LockFree[K, V]) DeleteMin() (key K, value V, ok bool) { return q.q.DeleteMin() }

// PeekMin returns the current minimum without removing it (advisory).
func (q *LockFree[K, V]) PeekMin() (key K, value V, ok bool) { return q.q.PeekMin() }

// Len returns the number of elements (snapshot).
func (q *LockFree[K, V]) Len() int { return q.q.Len() }

// Relaxed reports whether the queue was built with WithRelaxed.
func (q *LockFree[K, V]) Relaxed() bool { return q.q.Relaxed() }

// Keys returns the keys of unclaimed elements in ascending order (exact
// when quiescent).
func (q *LockFree[K, V]) Keys() []K { return q.q.CollectKeys(nil) }

// LockFreeStats re-exports the lock-free queue's counters (CAS retries,
// helping unlinks).
type LockFreeStats = lockfree.Stats

// Stats returns a snapshot of the operation counters.
func (q *LockFree[K, V]) Stats() LockFreeStats { return q.q.Stats() }

// Snapshot reads the observability probes (zero-valued without WithMetrics).
func (q *LockFree[K, V]) Snapshot() Snapshot { return published(q.metrics, q.q.ObsSnapshot) }
