// Package spray implements a SprayList-style relaxed priority queue over
// the paper's lock-based SkipQueue (internal/core, relaxed mode) — the
// other scalable answer (besides sharding, internal/sharded) to the
// DeleteMin scramble at the head of the bottom level that remains the
// Lotan/Shavit queue's bottleneck. Where the ShardedPQ buys head
// parallelism with P independent queues, the SprayList keeps ONE queue and
// decollides the deleters spatially: DeleteMin performs a randomized
// descending "spray" walk — height O(log p), forward jumps of uniform
// length per level, total jump-length budget O(log³ p) — and claims the
// first claimable node at its landing point with the paper's
// logical-delete SWAP (core.Queue.DeleteSpray). Concurrent deleters land
// on distinct near-head prefixes instead of all fighting for the first
// node, and the returned element's rank is O(p·log³ p) w.h.p. (Alistarh,
// Kopinsky, Li, Shavit, SPAA 2015; internal/quality measures the realized
// distribution and asserts the envelope).
//
// Ordering contract. Pop returns *some* small element — one drawn from a
// random prefix of the ascending key order. It is NOT the strict global
// minimum. Pop reports EMPTY only after a full bottom-level scan found
// nothing claimable (the scan is the SkipQueue's DeleteMin itself), so in
// any sequential execution EMPTY is never returned while the queue holds
// elements. Conservation is strict: the claim SWAP arbitrates every
// delivery, so no element is lost or delivered twice.
//
// Adaptivity. Spraying only pays when deleters actually collide; on an
// idle or lightly-loaded queue it wastes rank for nothing. Pop therefore
// tracks a collision EWMA — the claimed nodes that scans stepped over
// queue-wide during its own window, plus those its own walks met — and
// serves from the linear head scan while the EWMA sits below a threshold,
// switching to the spray walk when contention builds (and back, as it
// drains). A spray that fails to claim (empty landing zone, or every node
// in it already claimed) falls back to the full head scan, which also
// serves as the EMPTY certificate, mirroring internal/sharded's full-sweep
// fallback.
package spray

import (
	"runtime"
	"sync/atomic"
	"time"

	"skipqueue/internal/core"
	"skipqueue/internal/flight"
	"skipqueue/internal/obs"
	"skipqueue/internal/xrand"
)

// DefaultMaxLevel is shorter than the SkipQueue's own default (24):
// every search walks down from MaxLevel-1, and a spray queue's working set
// is bounded by its churn backlog, not the 2^24 elements the full tower
// height is sized for. 16 levels cover ~64k live elements at P=0.5 and
// shave a third off every Insert search. internal/sharded picks
// the same height for its per-shard lists for the same reason.
const DefaultMaxLevel = 16

// sprayAttempts bounds how many spray walks a Pop tries before falling
// back to the linear scan. Two: a second landing usually decorrelates from
// whatever emptied the first zone, while a third rarely beats just
// scanning (measured; the scan doubles as the EMPTY certificate anyway).
const sprayAttempts = 2

// claimAttempts bounds the claims one spray walk may lose before the walk
// is abandoned (see core.Queue.DeleteSpray's hunt budget).
const claimAttempts = 4

// ewmaThreshold is the collisions-per-Pop level (in ewmaScale fixed
// point) above which Pop sprays before scanning. One observed collision
// per recent Pop means deleters are actively colliding at the head.
const ewmaThreshold = 1 * ewmaScale

// ewmaScale is the fixed-point multiplier of the contention EWMA; the
// EWMA itself decays by 1/8 per Pop, so the signal spans ~8 recent Pops.
const ewmaScale = 16

// Mode selects how Pop arbitrates between the spray walk and the linear
// head scan.
type Mode int

const (
	// ModeAdaptive (the default) sprays only while the collision EWMA
	// says deleters are colliding.
	ModeAdaptive Mode = iota
	// ModeSpray always sprays first (tests and rank-error measurement).
	ModeSpray
	// ModeScan never sprays: the queue degenerates to the relaxed
	// SkipQueue of internal/core (baseline for A/B runs).
	ModeScan
)

// Config carries the tunables of a PQ. The zero value is usable.
type Config struct {
	// K is the contention width the spray is shaped for — the expected
	// number of concurrent deleters p. Zero selects GOMAXPROCS (minimum
	// 2). Height grows as log2(K)+1 and the per-level jump bound as
	// ~log²(K), so the total jump-length budget is O(log³ K).
	K int
	// MaxLevel, P and Seed configure the underlying skiplist exactly as
	// core.Config does.
	MaxLevel int
	P        float64
	Seed     uint64
	// Mode fixes the spray/scan arbitration; the zero value adapts on the
	// collision EWMA.
	Mode Mode
	// Metrics enables the observability probes: the "skipqueue.spray" set
	// plus the underlying core queue's own probes, merged into one
	// snapshot.
	Metrics bool
	// Flight, if non-nil, receives a flight-recorder event for every Pop
	// whose spray walks all failed and fell back to the linear scan
	// (flight.KSprayFallback, arg = spray attempts), and is passed to the
	// core queue for lock-retry events.
	Flight *flight.Recorder
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = runtime.GOMAXPROCS(0)
		if c.K < 2 {
			c.K = 2
		}
	}
	if c.MaxLevel <= 0 {
		c.MaxLevel = DefaultMaxLevel
	}
	return c
}

// log2ceil returns ⌈log2(n)⌉ for n ≥ 1.
func log2ceil(n int) int {
	l := 0
	for v := n - 1; v > 0; v >>= 1 {
		l++
	}
	return l
}

// Event describes one completed operation for quality checking; it mirrors
// internal/sharded.Event so the same rank-error harness replays both.
// Stamps are drawn from one global counter at each operation's
// serialization point — after the insert linked, after the winning claim,
// or at an EMPTY response.
type Event struct {
	Insert   bool
	Priority int64
	Seq      uint64
	OK       bool
	Stamp    int64
}

// probes are the spray layer's observability hooks, all nil without
// Config.Metrics (see internal/obs for the nil-safe discipline).
type probes struct {
	set *obs.Set
	fr  *flight.Recorder // contention event sink, nil-safe, set per Config.Flight

	walks      *obs.Counter // spray walks started
	claims     *obs.Counter // Pops served by a spray claim
	collisions *obs.Counter // already-claimed nodes sprays walked over, plus lost claims
	retries    *obs.Counter // spray walks that failed to claim and were retried or abandoned
	fallbacks  *obs.Counter // Pops that fell back to the linear head scan
	scanPops   *obs.Counter // Pops served by the scan (fallback or low-contention path)
	empties    *obs.Counter // Pops that returned EMPTY after a full scan
	popLat     *obs.Hist    // whole-Pop latency, sprays and any fallback scan included
}

func newProbes(enabled bool, fr *flight.Recorder) probes {
	if !enabled {
		return probes{fr: fr}
	}
	set := obs.NewSet("skipqueue.spray")
	return probes{
		set:        set,
		fr:         fr,
		walks:      set.Counter("spray.walks"),
		claims:     set.Counter("spray.claims"),
		collisions: set.Counter("spray.collisions"),
		retries:    set.Counter("claim.retries"),
		fallbacks:  set.Counter("scan.fallbacks"),
		scanPops:   set.Counter("scan.pops"),
		empties:    set.Counter("pop.empties"),
		popLat:     set.Durations("pop"),
	}
}

// PQ is the spray-based multiset priority queue. All methods are safe for
// concurrent use. Construct with New.
type PQ[V any] struct {
	cfg    Config
	q      *core.Queue[int64, V]
	height int // spray walk start height, log2(K)+1
	jump   int // per-level forward jump bound, ~log²(K)

	seq    atomic.Uint64 // element identity
	clock  atomic.Int64  // tracer stamp source
	sample atomic.Uint64 // per-Pop spray seed stream
	ewma   atomic.Int64  // collision EWMA, ewmaScale fixed point

	obs    probes
	tracer func(Event)
}

// New returns an empty spray queue configured by cfg.
func New[V any](cfg Config) *PQ[V] {
	cfg = cfg.withDefaults()
	p := &PQ[V]{cfg: cfg}
	p.q = core.New[int64, V](core.Config{
		MaxLevel: cfg.MaxLevel,
		P:        cfg.P,
		Seed:     cfg.Seed,
		// Spraying is inherently relaxed: a claim drawn from a random
		// prefix cannot honor the timestamp mechanism's strict minimum,
		// so the scan path skips the clock reads too.
		Relaxed: true,
		Metrics: cfg.Metrics,
		Flight:  cfg.Flight,
	})
	p.sample.Store(cfg.Seed)
	// Height log2(K)+1 and jump ~log²(K): a full-budget walk spans about
	// jump·2^height ≈ 2·K·log²(K) bottom positions, inside the SprayList's
	// O(K·log³ K) rank envelope with room for claim-hunt drift.
	l := log2ceil(cfg.K)
	if l < 1 {
		l = 1
	}
	p.height = l + 1
	if p.height > cfg.MaxLevel {
		p.height = cfg.MaxLevel
	}
	p.jump = l*l + 1
	p.obs = newProbes(cfg.Metrics, cfg.Flight)
	return p
}

// K returns the contention width the spray is shaped for.
func (p *PQ[V]) K() int { return p.cfg.K }

// SetTracer installs fn to observe completed operations for quality
// checking. It must be called before the queue is shared between
// goroutines. fn is invoked inline from Push and Pop.
func (p *PQ[V]) SetTracer(fn func(Event)) { p.tracer = fn }

// Stamp draws a fresh stamp from the tracer's global serialization
// counter (see sharded.PQ.Stamp for the front-end hand-off use case).
func (p *PQ[V]) Stamp() int64 { return p.clock.Add(1) }

// Push adds value with the given priority. Duplicate priorities are fine;
// elements with equal priority are delivered FIFO among themselves when
// claimed by the scan path (sprays may reorder them, as they may reorder
// anything within the rank envelope).
func (p *PQ[V]) Push(priority int64, value V) {
	seq := p.seq.Add(1)
	p.q.InsertSeq(priority, seq, value)
	if p.tracer != nil {
		p.tracer(Event{Insert: true, Priority: priority, Seq: seq, OK: true, Stamp: p.clock.Add(1)})
	}
}

// contended reports whether the EWMA says deleters are currently
// colliding (adaptive mode's spray trigger).
func (p *PQ[V]) contended() bool {
	switch p.cfg.Mode {
	case ModeSpray:
		return true
	case ModeScan:
		return false
	}
	return p.ewma.Load() >= ewmaThreshold
}

// observe folds one Pop's observed collision count into the EWMA. The
// update is a racy read-modify-write on purpose: the EWMA is a heuristic
// shared thermometer, and losing an update under contention still leaves
// it high — exactly when it should be.
func (p *PQ[V]) observe(collisions uint64) {
	old := p.ewma.Load()
	p.ewma.Store(old + (int64(collisions)*ewmaScale-old)/8)
}

// Pop removes and returns a small element: spray walks first under
// contention, then the linear head scan, which is also the only EMPTY
// certificate (a full bottom-level walk).
func (p *PQ[V]) Pop() (priority int64, value V, ok bool) {
	var t0 time.Time
	if p.obs.set.Enabled() {
		t0 = time.Now()
	}
	skips0 := p.q.ScanSkips()
	var walked uint64 // collisions this Pop's own walks met
	if p.contended() {
		for attempt := 0; attempt < sprayAttempts; attempt++ {
			p.obs.walks.Inc()
			seed := xrand.NewSplitMix64(p.sample.Add(1)).Next()
			k, seq, v, won, c := p.q.DeleteSpray(p.height, p.jump, claimAttempts, seed)
			if c > 0 {
				p.obs.collisions.Add(uint64(c))
				walked += uint64(c)
			}
			if won {
				p.obs.claims.Inc()
				return p.finishPop(k, seq, v, skips0, walked, t0)
			}
			p.obs.retries.Inc()
		}
		// Every landing zone was empty or fully claimed: certify (or
		// rescue) with the head scan.
		p.obs.fallbacks.Inc()
		p.obs.fr.Record(flight.KSprayFallback, 0, int64(sprayAttempts))
	}
	if k, seq, v, won := p.q.DeleteMinSeq(); won {
		p.obs.scanPops.Inc()
		return p.finishPop(k, seq, v, skips0, walked, t0)
	}
	p.observe(p.q.ScanSkips() - skips0 + walked)
	p.obs.empties.Inc()
	p.obs.popLat.Since(t0)
	if p.tracer != nil {
		p.tracer(Event{Stamp: p.clock.Add(1)})
	}
	return 0, value, false
}

// finishPop feeds the EWMA the Pop's collisions — the scan skips queue-wide
// since skips0 plus the walks' own — and traces the delivery.
func (p *PQ[V]) finishPop(prio int64, seq uint64, v V, skips0, walked uint64, t0 time.Time) (int64, V, bool) {
	p.observe(p.q.ScanSkips() - skips0 + walked)
	p.obs.popLat.Since(t0)
	if p.tracer != nil {
		p.tracer(Event{Priority: prio, Seq: seq, OK: true, Stamp: p.clock.Add(1)})
	}
	return prio, v, true
}

// Peek returns the current head minimum without removing it (advisory
// under concurrency, like every Peek in this repository).
func (p *PQ[V]) Peek() (priority int64, value V, ok bool) { return p.q.PeekMin() }

// Len returns the number of elements (exact when quiescent).
func (p *PQ[V]) Len() int { return p.q.Len() }

// Entry identifies one resident element: its priority and the unique
// sequence number its Push drew (compare sharded.Entry).
type Entry struct {
	Priority int64
	Seq      uint64
}

// Entries collects every unclaimed element in ascending order. Intended
// for tests and the quality harness on quiescent queues; under
// concurrency the snapshot is best-effort.
func (p *PQ[V]) Entries() []Entry {
	var out []Entry
	p.q.Each(func(priority int64, seq uint64) {
		out = append(out, Entry{Priority: priority, Seq: seq})
	})
	return out
}

// Contended exposes the adaptive trigger's current verdict (tests and the
// admin surface; instantaneous and advisory).
func (p *PQ[V]) Contended() bool { return p.contended() }

// ObsSnapshot reads the spray-layer probes and folds in the core queue's
// own probes, so one snapshot shows the spray/scan split and the
// skiplist contention underneath.
func (p *PQ[V]) ObsSnapshot() obs.Snapshot {
	return p.obs.set.Snapshot().Merge(p.q.ObsSnapshot())
}
