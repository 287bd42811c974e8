package skipqueue

import "skipqueue/internal/sharded"

// ShardedPQ is the relaxed, sharded multiset priority queue of
// internal/sharded: inserts spread round-robin over P per-core SkipQueue
// shards, Pop served by choice-of-two sampling with a full empty-sweep
// fallback. It trades strict ordering for throughput — Pop returns an
// element that was some shard's minimum, with an expected rank error of
// O(P) (see docs/ALGORITHMS.md and internal/quality) — while keeping the
// multiset guarantees exact: nothing is lost, nothing is delivered twice,
// and EMPTY is only reported after a scan of every shard. Peek returns the
// smallest shard minimum. Snapshot publishes the skipqueue.sharded set
// (sampling retries, sweeps, per-shard pops) merged with the aggregate
// core probes of all shards; Unwrap exposes the internal queue's tracer
// hook and per-shard introspection.
//
// *ShardedPQ[[]byte] satisfies internal/multiset.Queue, so pqd can serve
// it (-backend sharded). Construct with NewShardedPQ. All methods are safe
// for concurrent use.
type ShardedPQ[V any] struct {
	frontPQ[*sharded.PQ[V], V]
}

// NewShardedPQ returns an empty sharded queue with the given shard count
// (0 selects two shards per GOMAXPROCS). The usual options apply per
// shard; WithRelaxed is implied — shards always run without the timestamp
// mechanism, since shard-local strictness cannot restore the global order
// that sharding gives up.
func NewShardedPQ[V any](shards int, opts ...Option) *ShardedPQ[V] {
	o := resolve(opts)
	pq := new(ShardedPQ[V])
	pq.q = sharded.New[V](sharded.Config{
		Shards:   shards,
		MaxLevel: o.MaxLevel,
		P:        o.P,
		Seed:     o.Seed,
		Flight:   o.Flight,
	})
	return pq
}

// Shards returns the shard count the queue was built with.
func (pq *ShardedPQ[V]) Shards() int { return pq.q.Shards() }
