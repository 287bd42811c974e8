// Package multiset declares the one queue surface every layer between the
// skiplist and the socket speaks: the root package's multiset adapters
// implement it, and the elimination front-end, the WAL, the lease table
// and the server consume it. It imports nothing, so every package can
// depend on it without bending another package's dependency arrows.
package multiset

// Queue is a concurrent multiset priority queue: any number of elements may
// share a priority. Implementations must be safe for concurrent use. Push
// owns value from the call on.
type Queue[V any] interface {
	// Push adds value with the given priority.
	Push(priority int64, value V)
	// Pop removes and returns an element of minimum priority (or, on a
	// relaxed queue, a near-minimum one). ok is false when the queue is
	// empty.
	Pop() (priority int64, value V, ok bool)
	// Peek returns the element Pop would return, without removing it
	// (advisory under concurrency).
	Peek() (priority int64, value V, ok bool)
	// Len returns the number of elements (exact when quiescent).
	Len() int
}

// Loader is a Queue that can take its initial contents in one pass, faster
// than a Push per element. Layers that rebuild a queue from a sorted source
// (the WAL's recovery) use it when the queue they are handed implements it,
// and fall back to Push otherwise.
type Loader[V any] interface {
	Queue[V]
	// Load adds n elements, the i-th given by at(i), in ascending priority
	// order; equal priorities drain in index order. It is valid only on an
	// empty queue that no other goroutine uses yet.
	Load(n int, at func(i int) (priority int64, value V))
}
