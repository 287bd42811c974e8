// Package skipqueue is a scalable concurrent priority queue library based on
// the SkipQueue of Itay Lotan and Nir Shavit ("Skiplist-Based Concurrent
// Priority Queues", IPPS 2000).
//
// The central type is Queue: a priority queue built on Pugh's lock-based
// concurrent skiplist, in which all locking is distributed — there is no
// root lock — so Insert and DeleteMin throughput scales with the number of
// concurrent goroutines far beyond what heap-based designs sustain. (Each
// operation still updates a few queue-wide atomic words, each on cache
// lines of its own: the timestamp clock, the tower-height seed and, for PQ,
// the FIFO sequence counter. The statistics counters are sharded.)
// DeleteMin claims the first unclaimed, fully inserted bottom-level node
// with one atomic on its state word and then physically unlinks it with the
// ordinary skiplist deletion.
//
// Two orderings are offered:
//
//   - the default, strict queue carries the paper's timestamp mechanism:
//     every DeleteMin returns the minimum of all elements whose insertions
//     completed before the call began (minus previously deleted ones);
//   - the relaxed queue (WithRelaxed) drops the timestamps; a DeleteMin may
//     then return an element inserted concurrently with it when that
//     element sorts before the strict minimum. Relaxed deletions are faster
//     under heavy contention (Section 5.4 of the paper).
//
// Queue has map semantics on keys (inserting an existing key updates its
// value); PQ layers multiset semantics on top for workloads with duplicate
// priorities, such as discrete-event simulation. The paper's baselines — the
// Hunt et al. concurrent heap and a combining-funnel FunnelList — are
// exported as Heap and FunnelList for comparison and benchmarking.
package skipqueue

import (
	"skipqueue/internal/core"
	"skipqueue/internal/flight"
	"skipqueue/internal/obs"
)

// Ordered is the key constraint: any type totally ordered by <.
type Ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}

// Queue is a concurrent priority queue with unique keys. All methods are
// safe for concurrent use by any number of goroutines. Construct with New.
type Queue[K Ordered, V any] struct {
	q *core.Queue[K, V]
}

// Option configures a Queue or PQ.
type Option func(*options)

// options are the resolved Options: the skiplist's own Config, plus the
// metrics switch, which only the heap and funnel baselines see.
type options struct {
	core.Config
	metrics bool
}

// resolve applies opts to zero options.
func resolve(opts []Option) options {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithRelaxed disables the timestamp ordering mechanism. DeleteMin becomes
// faster under contention but may return a concurrently inserted element
// that sorts before the strict minimum.
func WithRelaxed() Option { return func(c *options) { c.Relaxed = true } }

// WithMaxLevel bounds skiplist tower heights. The default (24) is ample for
// tens of millions of elements; lower values save a little memory for small
// queues. The SkipQueue caps it at 64.
func WithMaxLevel(n int) Option { return func(c *options) { c.MaxLevel = n } }

// WithP sets the geometric tower-growth probability (default 0.5).
func WithP(p float64) Option { return func(c *options) { c.P = p } }

// WithSeed seeds tower-height randomness, making single-threaded runs
// reproducible.
func WithSeed(s uint64) Option { return func(c *options) { c.Seed = s } }

// WithMetrics turns on the per-operation latency histograms and counters
// of Heap, GlobalLockHeap and FunnelList, and so of GlobalHeapPQ; without
// it their Snapshot is zero-valued. The skiplist family (Queue, PQ,
// ShardedPQ, SprayPQ, ElimPQ) counts its events always and always
// publishes them, so for it the option changes nothing. See
// docs/OBSERVABILITY.md for the catalog and the overhead.
func WithMetrics() Option { return func(c *options) { c.metrics = true } }

// WithFlight attaches a flight recorder to the queue: a fixed-size
// in-memory ring of contention events — lock re-acquisitions, sweep and
// spray fallbacks, elimination exchanges — dumpable at any moment
// for post-hoc analysis of a latency spike. Independent of WithMetrics; a
// nil recorder is equivalent to omitting the option.
func WithFlight(r *FlightRecorder) Option { return func(c *options) { c.Flight = r } }

// FlightRecorder is the event ring WithFlight plugs into a queue; see
// internal/flight for the recording discipline. Construct with
// NewFlightRecorder, read with its Snapshot method (a FlightDump).
type FlightRecorder = flight.Recorder

// FlightDump is one atomic read of a FlightRecorder: the retained events in
// timestamp order plus drop accounting.
type FlightDump = flight.Dump

// NewFlightRecorder returns a recorder named name with the given shard and
// per-shard slot counts (0 selects the defaults: 8 shards × 4096 slots).
func NewFlightRecorder(name string, shards, slots int) *FlightRecorder {
	return flight.New(name, shards, slots)
}

// Stats are the queue's monotone operation counters.
type Stats = core.Stats

// Snapshot is a point-in-time reading of a queue's observability probes:
// counters, plus latency histograms with quantiles and log2 buckets for the
// heap and funnel baselines. Snapshots are relaxed in the same sense as
// Stats — each probe is read atomically, but the set is not a consistent
// cut of a concurrently mutating queue. The zero Snapshot (Enabled false)
// is what the heap and funnel baselines return without WithMetrics.
// Render with its Table or String methods, or marshal it to JSON.
type Snapshot = obs.Snapshot

// Instrumented is implemented by every queue type in this package: Queue,
// Heap, GlobalLockHeap and FunnelList, and the multiset queues PQ,
// GlobalHeapPQ, ShardedPQ, SprayPQ and ElimPQ all
// expose their probes through the same Snapshot shape, so harnesses can
// compare structures without per-type code.
type Instrumented interface {
	Snapshot() Snapshot
}

var (
	_ Instrumented = (*Queue[int, int])(nil)
	_ Instrumented = (*Heap[int, int])(nil)
	_ Instrumented = (*GlobalLockHeap[int, int])(nil)
	_ Instrumented = (*FunnelList[int, int])(nil)
	_ Instrumented = (*PQ[int])(nil)
	_ Instrumented = (*GlobalHeapPQ[int])(nil)
	_ Instrumented = (*ShardedPQ[int])(nil)
	_ Instrumented = (*SprayPQ[int])(nil)
	_ Instrumented = (*ElimPQ[int])(nil)
)

// New returns an empty queue.
func New[K Ordered, V any](opts ...Option) *Queue[K, V] {
	return &Queue[K, V]{q: core.New[K, V](resolve(opts).Config)}
}

// Insert adds key with value. If key is already present its value is
// replaced and Insert reports false; inserting a fresh key reports true.
func (q *Queue[K, V]) Insert(key K, value V) bool {
	return q.q.Insert(key, value) == core.Inserted
}

// DeleteMin removes and returns the minimum element. ok is false when the
// queue holds no eligible element. On the default strict queue the result
// honors the paper's Definition 1: it is the minimum over all elements whose
// insertions completed before this call began, minus elements already
// deleted.
func (q *Queue[K, V]) DeleteMin() (key K, value V, ok bool) {
	return q.q.DeleteMin()
}

// PeekMin returns the current minimum without removing it. The answer is
// advisory under concurrency: another goroutine may claim the element before
// the caller acts on it.
func (q *Queue[K, V]) PeekMin() (key K, value V, ok bool) {
	return q.q.PeekMin()
}

// Len returns the number of elements (exact when quiescent).
func (q *Queue[K, V]) Len() int { return q.q.Len() }

// Relaxed reports whether the queue was built with WithRelaxed.
func (q *Queue[K, V]) Relaxed() bool { return q.q.Relaxed() }

// Stats returns a snapshot of the operation counters.
func (q *Queue[K, V]) Stats() Stats { return q.q.Stats() }

// Snapshot reads the observability probes, with or without WithMetrics.
func (q *Queue[K, V]) Snapshot() Snapshot { return q.q.ObsSnapshot() }

// Keys returns the keys of all unclaimed elements in ascending order.
// Intended for tests and debugging of quiescent queues; under concurrency
// the snapshot is best-effort.
func (q *Queue[K, V]) Keys() []K { return q.q.CollectKeys(nil) }
