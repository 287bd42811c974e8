package skipqueue

import "skipqueue/internal/sharded"

// ShardedPQ is the relaxed, sharded multiset priority queue of
// internal/sharded: inserts spread round-robin over P per-core SkipQueue
// shards, Pop served by choice-of-two sampling with a full empty-sweep
// fallback. It trades strict ordering for throughput — Pop returns an
// element that was some shard's minimum, with an expected rank error of
// O(P) (see docs/ALGORITHMS.md and internal/quality) — while keeping the
// multiset guarantees exact: nothing is lost, nothing is delivered twice,
// and EMPTY is only reported after a scan of every shard.
//
// *ShardedPQ[[]byte] satisfies internal/multiset.Queue, so pqd can serve
// it (-backend sharded). Construct with NewShardedPQ. All methods are safe
// for concurrent use.
type ShardedPQ[V any] struct {
	q       *sharded.PQ[V]
	metrics bool
}

// NewShardedPQ returns an empty sharded queue with the given shard count
// (0 selects two shards per GOMAXPROCS). The usual options apply per
// shard; WithRelaxed is implied — shards always run without the timestamp
// mechanism, since shard-local strictness cannot restore the global order
// that sharding gives up.
func NewShardedPQ[V any](shards int, opts ...Option) *ShardedPQ[V] {
	o := resolve(opts)
	return &ShardedPQ[V]{q: sharded.New[V](sharded.Config{
		Shards:   shards,
		MaxLevel: o.MaxLevel,
		P:        o.P,
		Seed:     o.Seed,
		Flight:   o.Flight,
	}), metrics: o.metrics}
}

// Push adds value with the given priority. Duplicate priorities are fine.
func (pq *ShardedPQ[V]) Push(priority int64, value V) { pq.q.Push(priority, value) }

// Pop removes and returns a small element (relaxed: some shard's minimum,
// not necessarily the global one). ok is false only after a full sweep of
// every shard found nothing.
func (pq *ShardedPQ[V]) Pop() (priority int64, value V, ok bool) { return pq.q.Pop() }

// Peek returns the smallest shard minimum without removing it (advisory
// under concurrency).
func (pq *ShardedPQ[V]) Peek() (priority int64, value V, ok bool) { return pq.q.Peek() }

// Len returns the total number of elements (exact when quiescent).
func (pq *ShardedPQ[V]) Len() int { return pq.q.Len() }

// Shards returns the shard count the queue was built with.
func (pq *ShardedPQ[V]) Shards() int { return pq.q.Shards() }

// Snapshot reads the observability probes: the skipqueue.sharded set
// (sampling retries, sweeps, per-shard pops) merged with the aggregate
// core probes of all shards. Zero-valued without WithMetrics.
func (pq *ShardedPQ[V]) Snapshot() Snapshot { return published(pq.metrics, pq.q.ObsSnapshot) }

// Unwrap exposes the internal sharded queue for tests and harnesses that
// need its tracer hook or per-shard introspection.
func (pq *ShardedPQ[V]) Unwrap() *sharded.PQ[V] { return pq.q }
