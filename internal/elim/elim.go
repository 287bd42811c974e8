// Package elim implements an elimination-array front-end for the
// repository's priority queues, after Calciu, Mendes & Herlihy ("The
// Adaptive Priority Queue with Elimination and Combining", see PAPERS.md).
//
// The observation: on a mixed workload, an Insert whose key is no larger
// than the queue's current minimum and a concurrent DeleteMin cancel out —
// the DeleteMin would return exactly that key. Such a pair can meet in a
// small exchanger array and hand the element over directly, skipping the
// skiplist (and its single contended head) entirely. Everything else falls
// through to the wrapped queue unchanged.
//
// # Protocol
//
//   - Push(k, v): if k is at most the queue's min-estimate, publish (k, v)
//     into an empty exchanger slot and wait, yielding, up to a timeout. A
//     DeleteMin that claims the slot completes the Push; a timeout
//     withdraws the offer and the Push falls through to the inner queue.
//     Ineligible keys and full arrays fall through immediately.
//   - Pop(): scan the array once for a waiting Insert whose key is no
//     larger than the inner queue's current minimum (one PeekMin per
//     scan, taken at its first waiting offer); claim it with a CAS and
//     return its element without touching the queue. Otherwise fall
//     through to the inner Pop. If the inner Pop reports EMPTY, one
//     rescue scan picks up any Insert that published meanwhile.
//
// Slots carry a version in their state word, bumped at every publication,
// so a claim can never land on a republished slot it did not inspect (the
// ABA hazard of reusing slots).
//
// # Correctness (Definition 1, the exchange-serialization argument)
//
// An eliminated pair serializes as Insert(k) immediately followed by
// DeleteMin -> k, both at the exchange. This is legal exactly when no
// element smaller than k, whose insertion completed before the DeleteMin
// began, is still in the queue. The delete-side eligibility check
// guarantees it for a strict inner queue: any such element was fully
// linked before the DeleteMin began, so the PeekMin performed after it
// began either sees that element (forcing min < k and vetoing the
// exchange) or sees it already claimed — and a claim's serialization stamp
// is always drawn before the claim lands, hence before this exchange, so
// the claiming delete serializes first and the element is already out of
// I−D. The min-estimate on the insert side is only a heuristic gate for
// *attempting* elimination; it plays no role in correctness.
// internal/lincheck checks recorded histories (fall-through operations
// traced by the inner queue, exchanges traced here, stamps drawn from the
// one clock given to SetTracer) against exactly this witness. The protocol
// is the same traced or not: the claimer completes the whole exchange, so
// the checked path is the path production runs.
//
// The product composition is the strict queue (the root ElimPQ). Over a
// relaxed inner queue (internal/sharded, a test-only composition in
// internal/quality) strict ordering is already waived; elimination
// preserves the multiset guarantees — a slot is handed to exactly one
// claimer or withdrawn by its publisher, never both — and the eligibility
// check keeps the rank error of eliminated deliveries small (the key is at
// most an observed queue minimum).
package elim

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/multiset"
	"skipqueue/internal/obs"
)

// DefaultSlots is the exchanger array length when Config.Slots is zero.
// Elimination arrays want to be small — a waiting Insert is found by a
// linear scan, and slots beyond the number of concurrently publishing
// goroutines only lengthen it. One slot per core, with a floor so small
// machines still get pairing room, matches the sizing in the elimination
// literature.
func DefaultSlots() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	return n
}

// DefaultTimeout bounds how long a publishing Insert waits for a partner
// before withdrawing and falling through to the inner queue. The wait
// yields the processor each iteration, so on loaded machines the cost of a
// miss is a handful of scheduler passes, not a burned timeslice.
const DefaultTimeout = 20 * time.Microsecond

// Slot phases, kept in the low bits of the slot state word next to a
// publication version (see pack).
const (
	phaseEmpty      uint64 = iota // no offer; publishers may claim the slot
	phasePublishing               // a publisher owns the slot and is installing its offer
	phaseWaiting                  // an offer is visible; consumers may claim it
	phaseClaimed                  // a consumer won the claim and is finishing the exchange
	phaseTaken                    // exchange done; the slot is free to republish
)

const phaseBits = 3

// pack combines a publication version and a phase into one state word. The
// version is bumped once per publication, so a consumer's claim CAS —
// which carries the version it inspected — can never land on a slot that
// was withdrawn and republished in between.
func pack(ver, phase uint64) uint64 { return ver<<phaseBits | phase }

func phaseOf(s uint64) uint64 { return s & (1<<phaseBits - 1) }

// slot is one exchanger cell. The publisher owns all fields until it stores
// phaseWaiting; the claiming consumer owns them between its claim CAS and
// its phaseTaken store, and the next publisher after that. priority alone
// is read before that CAS, to test eligibility, while a publisher that
// recycled the slot may be writing it: the versioned CAS rejects the stale
// read, and the field is atomic so the read is not a data race. The
// trailing pad keeps neighbouring slots off one cache line so publishers
// spinning on their own slot do not invalidate their neighbours'.
type slot[V any] struct {
	state atomic.Uint64

	priority atomic.Int64
	value    V
	seq      uint64 // elimination identity, assigned at publish

	_ [64]byte
}

// Event describes one half of an eliminated exchange for history checking.
// PQ traces only exchanges — fall-through operations are traced by the
// inner queue under its own clock — so a full history is the merge of
// both streams, totally ordered by Stamp when the clock given to SetTracer
// is the inner queue's.
type Event struct {
	// Insert is true for the Push half of the pair, false for the Pop half.
	Insert bool
	// Priority is the exchanged element's priority.
	Priority int64
	// Seq is the element's elimination identity: unique among exchanges,
	// and disjoint from any inner-queue sequence space (the top bit is
	// always set).
	Seq uint64
	// OK is always true: only successful exchanges are traced.
	OK bool
	// Stamp is the serialization stamp drawn at the exchange — the
	// insert's is drawn immediately before its paired delete's.
	Stamp int64
	// Done, for the insert half, is drawn by the claimer after the delete
	// half's Stamp and before it releases the slot, so it falls between
	// the exchange and the Push's return.
	Done int64
	// Start, for the delete half, is the Pop's invocation stamp.
	Start int64
}

// elimSeqBit marks elimination identities so they can never collide with an
// inner queue's own sequence numbers in a merged history.
const elimSeqBit = uint64(1) << 63

// Config carries the tunables of a PQ. The zero value is usable.
type Config struct {
	// Slots is the exchanger array length (0 selects DefaultSlots()).
	Slots int
	// Timeout bounds a publishing Insert's wait (0 selects DefaultTimeout).
	Timeout time.Duration
	// Flight, if non-nil, receives a flight-recorder event for every
	// completed exchange (flight.KElimExchange, arg = the exchanged
	// priority); nil costs one nil check per hit.
	Flight *flight.Recorder
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = DefaultSlots()
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	return c
}

// probes are the elimination layer's "skipqueue.elim" counters, always
// counted; the wrapped queue counts its own operations.
type probes struct {
	set *obs.Set
	fr  *flight.Recorder // exchange event sink, nil-safe, set per Config.Flight

	hits       *obs.Counter // completed exchanges, counted by the claimer
	misses     *obs.Counter // eligible Pushes that found no empty slot
	timeouts   *obs.Counter // published offers withdrawn unclaimed
	ineligible *obs.Counter // waiting offers skipped by Pops (key above queue min)
	fallPushes *obs.Counter // Pushes handled by the inner queue
	fallPops   *obs.Counter // Pops handled by the inner queue
}

func newProbes(fr *flight.Recorder) probes {
	set := obs.NewSet("skipqueue.elim")
	return probes{
		set:        set,
		fr:         fr,
		hits:       set.Counter("exchange.hits"),
		misses:     set.Counter("publish.misses"),
		timeouts:   set.Counter("publish.timeouts"),
		ineligible: set.Counter("pop.ineligible"),
		fallPushes: set.Counter("fallthrough.pushes"),
		fallPops:   set.Counter("fallthrough.pops"),
	}
}

// PQ is the elimination front-end. All methods are safe for concurrent
// use. Construct with New.
type PQ[V any] struct {
	cfg   Config
	inner multiset.Queue[V]
	slots []slot[V]

	// est is the adaptive min-estimate that gates elimination attempts on
	// the insert side: refreshed to the popped key by every successful
	// inner Pop, lowered by every fall-through Push, and opened fully
	// (MaxInt64) when the inner queue reports EMPTY.
	est atomic.Int64

	seq atomic.Uint64 // elimination identities
	rr  atomic.Uint64 // rotating scan/publish start

	obs    probes
	tracer func(Event)
	clock  func() int64 // serialization stamps, drawn only when traced
}

// New returns an elimination front-end over inner, configured by cfg.
func New[V any](inner multiset.Queue[V], cfg Config) *PQ[V] {
	cfg = cfg.withDefaults()
	p := &PQ[V]{cfg: cfg, inner: inner, slots: make([]slot[V], cfg.Slots)}
	p.est.Store(math.MaxInt64)
	p.obs = newProbes(cfg.Flight)
	return p
}

// SetTracer installs fn to observe completed exchanges, stamped from
// clock. Wire clock to the inner queue's (core.Queue.Now, sharded.PQ.Stamp)
// so the merged history stays totally ordered. It must be called before the
// queue is shared between goroutines; the claimer invokes fn twice per
// exchange, once for each half.
func (p *PQ[V]) SetTracer(fn func(Event), clock func() int64) {
	p.tracer, p.clock = fn, clock
}

// Slots returns the exchanger array length.
func (p *PQ[V]) Slots() int { return len(p.slots) }

// lowerEst lowers the min-estimate to k if k is smaller. Lower-only: Pops
// raise the estimate when they learn a fresher minimum.
func (p *PQ[V]) lowerEst(k int64) {
	for {
		e := p.est.Load()
		if k >= e || p.est.CompareAndSwap(e, k) {
			return
		}
	}
}

// Push adds value with the given priority, through the exchanger when the
// key looks eliminable and a partner arrives in time, through the inner
// queue otherwise.
func (p *PQ[V]) Push(priority int64, value V) {
	if priority <= p.est.Load() && p.tryExchangePush(priority, value) {
		return
	}
	p.obs.fallPushes.Inc()
	// Publish the lowered estimate before the element becomes visible:
	// once this Push returns, no exchange may hand off a key above it
	// while it sits unclaimed in the queue, and a lowered estimate is what
	// steers those keys' Pushes (and, at the exchange, the delete-side
	// PeekMin) around the exchanger.
	p.lowerEst(priority)
	p.inner.Push(priority, value)
}

// tryExchangePush publishes (priority, value) into a free slot and waits
// for a claimer. It reports whether the element was handed off.
//
// The claimer completes the exchange alone — stamps, both trace halves,
// the hit count, the flight event — and its phaseTaken store frees the
// slot: later publishers may recycle it at once (publish accepts
// phaseTaken). This keeps slot turnover off the sleeping publisher's
// critical path: on an oversubscribed core a publisher can sleep a full
// scheduler slice between publishing and waking, and parking the slot until
// then would clog the whole array (measured: hit rates collapse three
// orders of magnitude on GOMAXPROCS=1 without recycling).
func (p *PQ[V]) tryExchangePush(priority int64, value V) bool {
	s, ver := p.publish(priority, value)
	if s == nil {
		p.obs.misses.Inc()
		return false
	}
	return p.await(s, ver)
}

// await waits for the offer published in s at version ver to be claimed,
// withdrawing it at the timeout. It reports whether the offer was consumed:
// the slot's version moved on (only a claim frees (ver, waiting) for
// republication) or the slot reads phaseTaken at ver.
func (p *PQ[V]) await(s *slot[V], ver uint64) bool {
	deadline := time.Now().Add(p.cfg.Timeout)
	for {
		st := s.state.Load()
		if st>>phaseBits != ver || phaseOf(st) == phaseTaken {
			return true
		}
		// Withdraw, via phasePublishing so the value can be zeroed under
		// exclusive ownership. Losing this CAS means a claimer arrived at
		// the last moment; wait for it to finish the exchange instead.
		if phaseOf(st) == phaseWaiting && time.Now().After(deadline) &&
			s.state.CompareAndSwap(st, pack(ver, phasePublishing)) {
			p.reset(s)
			p.obs.timeouts.Inc()
			return false
		}
		// Waiting before the deadline, or phaseClaimed with the claimer
		// mid-exchange: wait for phaseTaken.
		runtime.Gosched()
	}
}

// publish installs the offer in a free slot and makes it visible, returning
// the slot and the publication's version. A full scan finding no free slot
// returns nil. phaseTaken slots count as free (see tryExchangePush).
func (p *PQ[V]) publish(priority int64, value V) (*slot[V], uint64) {
	n := len(p.slots)
	start := int(p.rr.Add(1))
	for i := 0; i < n; i++ {
		s := &p.slots[(start+i)%n]
		st := s.state.Load()
		if ph := phaseOf(st); ph != phaseEmpty && ph != phaseTaken {
			continue
		}
		// Bump the version at publication so claims cannot cross offers
		// and sleeping publishers can see their slot move on.
		ver := st>>phaseBits + 1
		if !s.state.CompareAndSwap(st, pack(ver, phasePublishing)) {
			continue
		}
		s.priority.Store(priority)
		s.value = value
		s.seq = p.seq.Add(1) | elimSeqBit
		s.state.Store(pack(ver, phaseWaiting))
		return s, ver
	}
	return nil, 0
}

// reset clears a slot its publisher withdrew (phasePublishing) and returns
// it to the empty pool.
func (p *PQ[V]) reset(s *slot[V]) {
	var zero V
	s.value = zero
	s.state.Store(pack(s.state.Load()>>phaseBits, phaseEmpty))
}

// Pop removes and returns an element: a waiting eliminable Insert if one is
// in the array, the inner queue's minimum otherwise. ok is false only when
// the inner queue reported EMPTY and a final rescue scan found nothing to
// exchange.
func (p *PQ[V]) Pop() (priority int64, value V, ok bool) {
	var start int64
	if p.tracer != nil {
		start = p.clock()
	}
	if k, v, hit := p.tryExchangePop(start); hit {
		return k, v, true
	}
	p.obs.fallPops.Inc()
	k, v, ok := p.inner.Pop()
	if ok {
		// The popped key was an observed queue minimum: adopt it as the
		// estimate so elimination eligibility tracks the workload.
		p.est.Store(k)
		return k, v, true
	}
	// EMPTY: any offer published since the scan is trivially eligible
	// (nothing smaller can be waiting in an empty queue); rescue it rather
	// than reporting EMPTY around it.
	p.est.Store(math.MaxInt64)
	if k, v, hit := p.tryExchangePop(start); hit {
		return k, v, true
	}
	return 0, value, false
}

// tryExchangePop scans the array once for a claimable, eligible offer.
// Eligibility is checked against one PeekMin of the inner queue, taken at
// the first waiting offer and so after this Pop began — the
// exchange-serialization witness (see the package comment). A scan that
// meets no offer peeks nothing.
func (p *PQ[V]) tryExchangePop(start int64) (int64, V, bool) {
	var zero V
	var min int64
	peeked, nonEmpty := false, false
	n := len(p.slots)
	first := int(p.rr.Add(1))
	for i := 0; i < n; i++ {
		s := &p.slots[(first+i)%n]
		st := s.state.Load()
		if phaseOf(st) != phaseWaiting {
			continue
		}
		if !peeked {
			min, _, nonEmpty = p.inner.Peek()
			peeked = true
		}
		k := s.priority.Load()
		if nonEmpty && k > min {
			p.obs.ineligible.Inc()
			continue
		}
		if !s.state.CompareAndSwap(st, pack(st>>phaseBits, phaseClaimed)) {
			continue // withdrawn or already claimed; keep scanning
		}
		v := s.value
		seq := s.seq
		s.value = zero // drop the slot's copy before the slot moves on
		var sIns, sDel, done int64
		if p.tracer != nil {
			// Insert, then delete, then the insert's Done, all before the
			// slot is released and its publisher can return.
			sIns, sDel, done = p.clock(), p.clock(), p.clock()
		}
		s.state.Store(pack(st>>phaseBits, phaseTaken))
		p.obs.hits.Inc()
		p.obs.fr.Record(flight.KElimExchange, 0, k)
		if p.tracer != nil {
			p.tracer(Event{Insert: true, Priority: k, Seq: seq, OK: true, Stamp: sIns, Done: done})
			p.tracer(Event{Priority: k, Seq: seq, OK: true, Start: start, Stamp: sDel})
		}
		return k, v, true
	}
	return 0, zero, false
}

// Peek returns the inner queue's minimum without removing it (advisory
// under concurrency, like every Peek in this repository). Offers waiting
// in the exchanger belong to Pushes that have not returned yet, so they
// are not visible here.
func (p *PQ[V]) Peek() (priority int64, value V, ok bool) { return p.inner.Peek() }

// Len returns the inner queue's length (exact when quiescent; waiting
// offers are in-flight Pushes and do not count).
func (p *PQ[V]) Len() int { return p.inner.Len() }

// ObsSnapshot reads the elimination layer's probes. The inner queue's
// probes are its own; root adapters merge the two.
func (p *PQ[V]) ObsSnapshot() obs.Snapshot { return p.obs.set.Snapshot() }
