package skipqueue

import "skipqueue/internal/bounded"

// Bounded is a concurrent priority queue for the special case the paper
// contrasts the SkipQueue with: priorities drawn from a small predetermined
// range [0, R). It is an array of R bins with a minimum hint — performance
// is governed by bin contention, not search, so it scales extremely well
// when the range truly is small, and cannot be used at all when it is not.
// All methods are safe for concurrent use. Equal-priority elements are
// unordered among themselves.
type Bounded[V any] struct {
	q *bounded.Queue[V]
}

// NewBounded returns a queue over priorities [0, r). It panics if r <= 0.
func NewBounded[V any](r int) *Bounded[V] {
	return &Bounded[V]{q: bounded.New[V](r)}
}

// Insert adds value at the given priority; it panics outside [0, Range).
func (b *Bounded[V]) Insert(priority int, value V) { b.q.Insert(priority, value) }

// DeleteMin removes and returns an element of minimal priority.
func (b *Bounded[V]) DeleteMin() (priority int, value V, ok bool) { return b.q.DeleteMin() }

// PeekMin returns the smallest priority currently present (advisory).
func (b *Bounded[V]) PeekMin() (int, bool) { return b.q.PeekMin() }

// Len returns the number of elements (snapshot).
func (b *Bounded[V]) Len() int { return b.q.Len() }

// Range returns the fixed priority range R.
func (b *Bounded[V]) Range() int { return b.q.Range() }

// BoundedStats re-exports the bin queue's counters.
type BoundedStats = bounded.Stats

// Stats returns a snapshot of the operation counters.
func (b *Bounded[V]) Stats() BoundedStats { return b.q.Stats() }
