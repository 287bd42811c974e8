// Package sharded implements a relaxed, sharded priority queue in the
// spirit of the MultiQueue/k-LSM line of work that follows the paper's own
// Section 5.4 ablation: once strict Definition 1 ordering is weakened, the
// remaining scalability bottleneck is that every DeleteMin fights over one
// minimum. The fix is to spread elements over P independent shards — each a
// SkipQueue in relaxed mode — and serve DeleteMin by choice-of-two
// sampling: peek the minima of two randomly chosen shards and claim the
// smaller. The classic power-of-two-choices argument keeps the expected
// rank error (how far the returned element sits from the true minimum)
// at O(P), with an O(P·log P)-shaped tail; internal/quality measures
// exactly that from recorded histories.
//
// Ordering contract. Pop returns *some* small element: an element that was
// the minimum of at least one shard at its claim point. It is NOT the
// strict global minimum. Pop reports EMPTY only after a full sweep of all
// shards found nothing claimable, so in any sequential execution (and for
// any element whose insert completed before the Pop began and that no
// concurrent Pop claims) EMPTY is never returned while the queue holds
// elements. Conservation is strict: no element is lost or delivered twice.
//
// Inserts are spread round-robin by the same global sequence number that
// makes the queue a multiset (duplicate priorities are fine, FIFO within a
// priority holds per shard), so shard sizes stay balanced without
// coordination.
package sharded

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"skipqueue/internal/core"
	"skipqueue/internal/flight"
	"skipqueue/internal/obs"
	"skipqueue/internal/xrand"
)

// DefaultShardFactor is the multiplier applied to GOMAXPROCS when
// Config.Shards is zero. The MultiQueue literature runs c·P queues for a
// small constant c; two queues per core keeps the sampled shards likely
// distinct even on small machines.
const DefaultShardFactor = 2

// DefaultShardMaxLevel is the default tower cap per shard. A shard holds
// roughly 1/P of the elements, so it needs fewer levels than a single
// queue sized for everything (core.DefaultMaxLevel = 24): 16 covers 2^16
// expected elements per shard at p = 0.5, and the skiplist degrades
// gracefully (longer top-level walks) beyond that bound. This matters for
// throughput because the skiplist's predecessor search pays a fixed cost
// per level whether or not the level is populated; on per-shard sizes the
// shorter towers are measurably faster. Set Config.MaxLevel to override.
const DefaultShardMaxLevel = 16

// popSampleAttempts bounds how many choice-of-two rounds a Pop runs before
// falling back to the full empty-sweep. Each failed round means either a
// lost claim race or two empty-looking shards; past a few rounds the sweep
// is both cheaper and the only way to certify EMPTY.
const popSampleAttempts = 4

// Config carries the tunables of a PQ. The zero value is usable.
type Config struct {
	// Shards is the number of per-core shards. Zero selects
	// DefaultShardFactor × GOMAXPROCS (minimum 2).
	Shards int
	// MaxLevel, P and Seed configure each shard's skiplist exactly as
	// core.Config does.
	MaxLevel int
	P        float64
	Seed     uint64
	// Flight, if non-nil, receives a flight-recorder event for every Pop
	// that exhausts its choice-of-two samples and falls back to the full
	// empty-sweep (flight.KSweepFallback, arg = shard count), and is
	// passed through to every shard's core.Config for lock-retry events.
	Flight *flight.Recorder
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShardFactor * runtime.GOMAXPROCS(0)
		if c.Shards < 2 {
			c.Shards = 2
		}
	}
	if c.MaxLevel <= 0 {
		c.MaxLevel = DefaultShardMaxLevel
	}
	return c
}

// Event describes one completed operation for quality checking (see
// internal/quality). Stamps are drawn from a single global counter at each
// operation's serialization point — after the shard insert is linked, after
// the winning claim, or at an EMPTY response — so sorting a recorded
// history by Stamp yields the replay order the rank-error harness uses.
type Event struct {
	// Insert is true for a Push, false for a Pop.
	Insert bool
	// Priority is the element's priority (zero for EMPTY pops).
	Priority int64
	// Seq is the element's unique sequence number: the multiset identity
	// that pairs each delivered element with exactly one Push.
	Seq uint64
	// OK is false for a Pop that returned EMPTY.
	OK bool
	// Stamp is the global serialization stamp.
	Stamp int64
}

// probes are the sharded layer's own counters: the events no shard sees.
// Per-shard pops are each shard's DeleteMins, read at snapshot time.
type probes struct {
	set *obs.Set
	fr  *flight.Recorder // contention event sink, nil-safe, set per Config.Flight

	sampleRetries *obs.Counter // claim attempts lost to a racing Pop
	sweeps        *obs.Counter // Pops that fell back to the full sweep
	sweepRescues  *obs.Counter // sweeps that still found an element
	empties       *obs.Counter // Pops that returned EMPTY after a sweep
}

func newProbes(fr *flight.Recorder) probes {
	set := obs.NewSet("skipqueue.sharded")
	return probes{
		set:           set,
		fr:            fr,
		sampleRetries: set.Counter("sample.retries"),
		sweeps:        set.Counter("sweep.fallbacks"),
		sweepRescues:  set.Counter("sweep.rescues"),
		empties:       set.Counter("pop.empties"),
	}
}

// PQ is the sharded multiset priority queue. All methods are safe for
// concurrent use. Construct with New.
type PQ[V any] struct {
	cfg    Config
	shards []*core.Queue[int64, V]
	mask   uint64        // len(shards)-1 when a power of two, else 0
	seq    atomic.Uint64 // element identity + round-robin insert spread
	sample atomic.Uint64 // per-Pop sampling seed stream
	clock  atomic.Int64  // tracer stamp source
	obs    probes
	tracer func(Event)
}

// New returns an empty sharded queue configured by cfg.
func New[V any](cfg Config) *PQ[V] {
	cfg = cfg.withDefaults()
	p := &PQ[V]{cfg: cfg, shards: make([]*core.Queue[int64, V], cfg.Shards)}
	p.sample.Store(cfg.Seed)
	for i := range p.shards {
		p.shards[i] = core.New[int64, V](core.Config{
			MaxLevel: cfg.MaxLevel,
			P:        cfg.P,
			// Derive distinct tower seeds so shards don't build towers in
			// lockstep under the round-robin insert spread.
			Seed: cfg.Seed + uint64(i)*0x9e3779b97f4a7c15,
			// Shard-local timestamp ordering cannot restore the global
			// order that sharding already gave up, so shards always run
			// relaxed and skip the clock reads.
			Relaxed: true,
			Flight:  cfg.Flight,
		})
	}
	if n := uint64(cfg.Shards); n&(n-1) == 0 {
		p.mask = n - 1
	}
	p.obs = newProbes(cfg.Flight)
	return p
}

// shardIdx maps a uniform 64-bit draw to a shard index; the common
// power-of-two shard counts take the maskable fast path (the `%` below is
// a hardware divide on the Push/Pop hot paths otherwise).
func (p *PQ[V]) shardIdx(u uint64) int {
	if p.mask != 0 {
		return int(u & p.mask)
	}
	return int(u % uint64(len(p.shards)))
}

// Shards returns the shard count.
func (p *PQ[V]) Shards() int { return len(p.shards) }

// SetTracer installs fn to observe completed operations for quality
// checking. It must be called before the queue is shared between
// goroutines. fn is invoked inline from Push and Pop.
func (p *PQ[V]) SetTracer(fn func(Event)) { p.tracer = fn }

// Stamp draws a fresh stamp from the same global counter the tracer
// serializes Push and Pop events on. Front-ends that hand elements off
// outside the shards (internal/elim's exchange path) stamp their events
// here, so a merged history replays in one consistent order under
// internal/quality.
func (p *PQ[V]) Stamp() int64 { return p.clock.Add(1) }

// Push adds value with the given priority. Duplicate priorities are fine;
// elements with equal priority are delivered FIFO within their shard.
func (p *PQ[V]) Push(priority int64, value V) {
	seq := p.seq.Add(1)
	p.shards[p.shardIdx(seq)].InsertSeq(priority, seq, value)
	if p.tracer != nil {
		p.tracer(Event{Insert: true, Priority: priority, Seq: seq, OK: true, Stamp: p.clock.Add(1)})
	}
}

// sample2 draws two independent shard indices from a splitmix64 stream.
// The two halves of one draw are decorrelated by the finalizer, so one
// atomic add buys both indices.
func (p *PQ[V]) sample2() (int, int) {
	h := xrand.NewSplitMix64(p.sample.Add(1)).Next()
	return p.shardIdx(h), p.shardIdx(h >> 32)
}

// Pop removes and returns a small element: choice-of-two sampling first,
// then a full sweep of every shard, so ok is false only when a complete
// scan found nothing claimable.
func (p *PQ[V]) Pop() (priority int64, value V, ok bool) {
	n := len(p.shards)
	var start int
sampling:
	for attempt := 0; attempt < popSampleAttempts; attempt++ {
		i, j := p.sample2()
		start = i
		ki, si, oki := p.shards[i].PeekMinPos()
		var kj int64
		var sj uint64
		var okj bool
		if j != i {
			kj, sj, okj = p.shards[j].PeekMinPos()
		}
		var pick int
		switch {
		case oki && okj:
			if less(kj, sj, ki, si) {
				pick = j
			} else {
				pick = i
			}
		case oki:
			pick = i
		case okj:
			pick = j
		default:
			// Both sampled shards look empty; resampling blindly cannot
			// certify EMPTY — go certify (or rescue) with the sweep.
			break sampling
		}
		if k, seq, v, won := p.shards[pick].DeleteMinSeq(); won {
			return p.finishPop(k, seq, v)
		}
		// The peeked element (and everything behind it) was claimed by
		// racing Pops between our peek and our claim. Resample.
		p.obs.sampleRetries.Inc()
	}

	// Empty-sweep fallback: scan every shard once, starting from the last
	// sampled index so concurrent sweepers don't all hammer shard 0.
	p.obs.sweeps.Inc()
	p.obs.fr.Record(flight.KSweepFallback, 0, int64(n))
	for t := 0; t < n; t++ {
		s := (start + t) % n
		if k, seq, v, won := p.shards[s].DeleteMinSeq(); won {
			p.obs.sweepRescues.Inc()
			return p.finishPop(k, seq, v)
		}
	}
	p.obs.empties.Inc()
	if p.tracer != nil {
		p.tracer(Event{Stamp: p.clock.Add(1)})
	}
	return 0, value, false
}

func (p *PQ[V]) finishPop(prio int64, seq uint64, v V) (int64, V, bool) {
	if p.tracer != nil {
		p.tracer(Event{Priority: prio, Seq: seq, OK: true, Stamp: p.clock.Add(1)})
	}
	return prio, v, true
}

// less orders two shard minima the way the shards order their elements:
// by priority, then by sequence number.
func less(p1 int64, s1 uint64, p2 int64, s2 uint64) bool {
	return p1 < p2 || (p1 == p2 && s1 < s2)
}

// Peek returns the smallest of the shard minima without removing it
// (advisory under concurrency, like every Peek in this repository).
func (p *PQ[V]) Peek() (priority int64, value V, ok bool) {
	var bestSeq uint64
	for _, s := range p.shards {
		if k, seq, v, got := s.PeekMinSeq(); got && (!ok || less(k, seq, priority, bestSeq)) {
			priority, bestSeq, value, ok = k, seq, v, true
		}
	}
	return priority, value, ok
}

// Len returns the total number of elements across shards (exact when
// quiescent, best-effort otherwise).
func (p *PQ[V]) Len() int {
	n := 0
	for _, s := range p.shards {
		n += s.Len()
	}
	return n
}

// Entry identifies one resident element: its priority and the unique
// sequence number its Push drew.
type Entry struct {
	Priority int64
	Seq      uint64
}

// Entries collects every unclaimed element across all shards. Intended for
// tests and the quality harness on quiescent queues; under concurrency the
// snapshot is best-effort.
func (p *PQ[V]) Entries() []Entry {
	var out []Entry
	for _, s := range p.shards {
		s.Each(func(priority int64, seq uint64) {
			out = append(out, Entry{Priority: priority, Seq: seq})
		})
	}
	return out
}

// ShardLens returns each shard's current size, for balance assertions.
func (p *PQ[V]) ShardLens() []int {
	lens := make([]int, len(p.shards))
	for i, s := range p.shards {
		lens[i] = s.Len()
	}
	return lens
}

// ObsSnapshot reads the sharded-layer probes, adds shard.NN.pops (shard NN's
// DeleteMins: Pop is the shards' only deleter) and folds in every shard's
// core probes (counters summed across shards), so one snapshot shows both
// the sampling behaviour and the aggregate skiplist contention underneath.
func (p *PQ[V]) ObsSnapshot() obs.Snapshot {
	snap := p.obs.set.Snapshot()
	for i, s := range p.shards {
		snap.Counters = append(snap.Counters, obs.CounterValue{
			Name: fmt.Sprintf("shard.%02d.pops", i), Value: s.Stats().DeleteMins})
	}
	for _, s := range p.shards {
		snap = snap.Merge(s.ObsSnapshot())
	}
	return snap
}
