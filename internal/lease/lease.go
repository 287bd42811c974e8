// Package lease upgrades the queue's delivery contract from
// fire-and-forget to at-least-once: instead of DeleteMin handing an
// element to a consumer that may crash with it, PopLease grants a
// revocable claim — a (leaseID, deadline) pair — and the element is only
// retired when the consumer Acks before the deadline. A Nack, or the
// deadline passing, returns the element to the queue at its original
// priority with a delivery-count bump; elements that exhaust a delivery
// budget divert to a dead-letter queue drainable over the same protocol.
// Delayed inserts ride the same machinery: an element pushed with a
// delay is durable immediately but invisible to pops until it matures.
//
// Table is a decorator over any multiset.Queue (the Push/Pop/Peek/Len
// surface internal/server drives). It owns three pieces of state:
//
//   - a value header threaded through the backend: every stored value is
//     prefixed with {deliveries uint32, ready int64}, so delivery counts
//     and maturity times travel *through* the backend — and, when the
//     backend is a *wal.Queue, through crashes and snapshot compaction —
//     without any side table to keep consistent;
//   - a lease map keyed by table-issued lease IDs, each entry holding
//     the element and its slot in a binary min-heap of deadlines (lease
//     expiries and delayed maturities alike), so grant, ack and extend
//     are O(log n) and a sweep pops exactly the deadlines that are due;
//   - a dead-letter FIFO for elements over the delivery budget.
//
// Durability composes through the Leaser interface, implemented by
// *wal.Queue: LeaseMin claims the min and logs nothing, so the element
// stays live on disk; Ack retires it durably, Requeue rewrites it
// (carrying the bumped delivery header). A crash at ANY point between
// grant and ack leaves the element live on disk, so recovery
// conservatively redelivers — never loses — in-flight work. New wraps
// a plain in-memory backend in a Leaser without the durability (token
// 0, no-op acks), so the table runs one protocol over either. Commit
// and Sync forward to the backend's barrier, which is how the server
// finds it.
//
// A table is safe for concurrent use; one mutex serializes it. At the
// server's operation rates (hundreds of thousands of ops/s) the
// critical sections — map ops plus O(log n) heap ops — are far from the
// bottleneck. The expiry sweep runs on one timer armed to the earliest
// deadline, so a table with nothing leased or delayed never wakes.
package lease

import (
	"encoding/binary"
	"math"
	"sync"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/multiset"
	"skipqueue/internal/obs"
)

// Leaser is the durable lease surface a decorated queue may additionally
// implement (*wal.Queue does). LeaseMin claims the minimum element
// without durably retiring it: it leaves the in-memory structure but
// stays live in the log, so a crash resurrects it. Ack retires it
// for good; Requeue returns it with a rewritten stored value. The token
// is the element's durable identity.
type Leaser interface {
	LeaseMin() (token uint64, priority int64, stored []byte, ok bool)
	Ack(token uint64)
	Requeue(token uint64, priority int64, stored []byte)
	// Rewrite updates a leased element's stored value durably without
	// releasing it — how a dead-letter divert persists its delivery
	// count while the element stays claimed.
	Rewrite(token uint64, priority int64, stored []byte)
	// Commit makes every transition recorded so far durable (sync mode)
	// or schedules it (async mode). Sweep calls it after requeueing,
	// because no client request follows a sweep to commit for it.
	Commit() error
	// Sync makes every transition recorded so far durable regardless of
	// mode: the drain path's final barrier.
	Sync() error
}

// volatile is the Leaser New wraps a plain backend in: a claim is a Pop,
// a requeue a Push, and nothing is durable, so the rest are no-ops.
type volatile struct{ q multiset.Queue[[]byte] }

func (v volatile) LeaseMin() (uint64, int64, []byte, bool) {
	prio, stored, ok := v.q.Pop()
	return 0, prio, stored, ok
}

func (v volatile) Requeue(_ uint64, prio int64, stored []byte) { v.q.Push(prio, stored) }

func (volatile) Ack(uint64)                    {}
func (volatile) Rewrite(uint64, int64, []byte) {}
func (volatile) Commit() error                 { return nil }
func (volatile) Sync() error                   { return nil }

// Config configures a Table.
type Config struct {
	// TTL is the default lease duration PopLease grants when the client
	// does not request one. Default 30s.
	TTL time.Duration
	// Tick is the minimum gap between background expiry sweeps: a lease
	// expires at most Tick after its deadline, and a sync-WAL table
	// commits at most one sweep per Tick. Default 10ms. Negative disables
	// the background sweep (tests drive Sweep directly).
	Tick time.Duration
	// MaxDeliveries diverts an element to the dead-letter queue once it
	// has been delivered this many times without an ack. 0 = never.
	MaxDeliveries int
	// StormThreshold flags an expiry sweep that requeues at least this
	// many leases at once as a redelivery storm. Default 64.
	StormThreshold int
	// Flight, if non-nil, receives lease anomalies (redelivery storms,
	// expiry/ack races, dead-letter diversions).
	Flight *flight.Recorder
}

// Value header threaded through the backend: completed delivery count +
// readiness time (UnixMilli; 0 = born ready).
const hdrSize = 4 + 8

func wrapValue(deliveries uint32, readyMilli int64, value []byte) []byte {
	buf := make([]byte, hdrSize+len(value))
	binary.BigEndian.PutUint32(buf, deliveries)
	binary.BigEndian.PutUint64(buf[4:], uint64(readyMilli))
	copy(buf[hdrSize:], value)
	return buf
}

func unwrapValue(stored []byte) (deliveries uint32, readyMilli int64, value []byte) {
	if len(stored) < hdrSize {
		// Every stored value came from wrapValue; pure defense against a
		// backend fed from outside the table.
		return 0, 0, stored
	}
	return binary.BigEndian.Uint32(stored),
		int64(binary.BigEndian.Uint64(stored[4:])),
		stored[hdrSize:]
}

// item is one element claimed from the backend and held by the table:
// out on a lease, parked until its ready time, or dead-lettered. Its
// durable token is never acked while the table holds it, so the element
// stays crash-live.
type item struct {
	token      uint64 // durable identity (0 on a plain backend)
	prio       int64
	value      []byte    // bare value, header stripped
	deadline   time.Time // leased: when the lease expires
	granted    time.Time // leased: when it was granted
	pos        int       // leased or parked: index in Table.due
	readyMilli int64     // parked: maturity time (UnixMilli)
	deliveries uint32    // completed deliveries; a lease counts its own
	fromDead   bool      // leased off the dead-letter queue
}

// stored is the element's backend value: its header plus the bare value.
func (it *item) stored() []byte { return wrapValue(it.deliveries, it.readyMilli, it.value) }

// probes is the "skipqueue.lease" observability set. The table always
// counts.
type probes struct {
	set *obs.Set

	grants      *obs.Counter // leases granted (incl. dead-letter pops)
	acks        *obs.Counter // leases retired by Ack
	nacks       *obs.Counter // leases returned by Nack
	extends     *obs.Counter // deadlines pushed out by Extend
	expires     *obs.Counter // leases revoked by the deadline
	deadLetters *obs.Counter // elements diverted to the dead-letter queue
	delayIns    *obs.Counter // delayed inserts accepted
	delayReady  *obs.Counter // delayed elements matured back into the queue
	ackRaces    *obs.Counter // acks/nacks/extends that lost the expiry race
	storms      *obs.Counter // redelivery storms flagged
	noLease     *obs.Counter // acks/nacks/extends for unknown lease IDs

	held       *obs.Hist // grant→ack lease hold time
	deliveries *obs.Hist // delivery count at ack time
}

func newProbes() probes {
	set := obs.NewSet("skipqueue.lease")
	return probes{
		set:         set,
		grants:      set.Counter("grants"),
		acks:        set.Counter("acks"),
		nacks:       set.Counter("nacks"),
		extends:     set.Counter("extends"),
		expires:     set.Counter("expires"),
		deadLetters: set.Counter("dead_letters"),
		delayIns:    set.Counter("delay.inserts"),
		delayReady:  set.Counter("delay.matured"),
		ackRaces:    set.Counter("ack_races"),
		storms:      set.Counter("storms"),
		noLease:     set.Counter("no_lease"),
		held:        set.Durations("held"),
		deliveries:  set.Values("deliveries"),
	}
}

// recentCap bounds the recently-expired ring used to tell an
// expiry/ack race from a bogus lease ID.
const recentCap = 1024

// Table is the lease table. Construct with New; all methods are safe
// for concurrent use.
type Table struct {
	cfg   Config
	inner multiset.Queue[[]byte]
	lsr   Leaser // inner, or inner wrapped in volatile
	obs   probes
	now   func() time.Time // injectable for tests

	mu      sync.Mutex
	due     deadlines // every lease deadline and delayed maturity
	start   time.Time // deadlines are nanosecond offsets from start
	seq     uint64    // lease / parked-item ID allocator
	leases  map[uint64]*item
	delayed map[uint64]*item
	dead    []*item

	// recently expired lease IDs, for KLeaseAckRace: id → expiry time.
	recent     map[uint64]time.Time
	recentFIFO []uint64

	timer  *time.Timer    // background sweep; nil when off or closed
	wake   int64          // offset the timer is armed for; noWake if not
	floor  int64          // earliest offset the next background sweep may run
	sweeps sync.WaitGroup // background sweeps in flight, for Close
}

// New builds a lease table over inner. When inner also implements
// Leaser (a *wal.Queue does), every lease transition is durable and a
// crash redelivers rather than loses. Call Close when done.
func New(cfg Config, inner multiset.Queue[[]byte]) *Table {
	if cfg.TTL <= 0 {
		cfg.TTL = 30 * time.Second
	}
	if cfg.Tick == 0 {
		cfg.Tick = 10 * time.Millisecond
	}
	if cfg.StormThreshold <= 0 {
		cfg.StormThreshold = 64
	}
	t := &Table{
		cfg:     cfg,
		inner:   inner,
		obs:     newProbes(),
		now:     time.Now,
		leases:  map[uint64]*item{},
		delayed: map[uint64]*item{},
		recent:  map[uint64]time.Time{},
		wake:    noWake,
	}
	if lsr, ok := inner.(Leaser); ok {
		t.lsr = lsr
	} else {
		t.lsr = volatile{inner}
	}
	t.start = t.now()
	if cfg.Tick > 0 {
		// Created disarmed: the first deadline arms it (armLocked).
		t.timer = time.AfterFunc(time.Hour, t.fire)
		t.timer.Stop()
	}
	return t
}

// Snapshot reads the table's probe set, "skipqueue.lease".
func (t *Table) Snapshot() obs.Snapshot { return t.obs.set.Snapshot() }

// Durable reports whether lease transitions are crash-safe (the backend
// implements Leaser).
func (t *Table) Durable() bool {
	_, plain := t.lsr.(volatile)
	return !plain
}

// Commit is the backend's commit barrier (Leaser.Commit): it returns once
// every transition applied before the call is durable, or at once on an
// async or plain backend. The server calls it before ACKing a batch.
func (t *Table) Commit() error { return t.lsr.Commit() }

// Sync makes every transition applied before the call durable regardless
// of the backend's mode (Leaser.Sync).
func (t *Table) Sync() error { return t.lsr.Sync() }

// since maps an instant to its deadline-heap offset. Instants read off
// the table's clock carry a monotonic reading, so a wall-clock step
// cannot move a lease deadline.
func (t *Table) since(at time.Time) int64 { return int64(at.Sub(t.start)) }

// --- multiset.Queue surface (what the server's plain opcodes drive) ---

// Push enqueues an immediately-ready element.
func (t *Table) Push(priority int64, value []byte) {
	t.inner.Push(priority, wrapValue(0, 0, value))
}

// PushDelayed enqueues an element invisible to pops for delay. It is
// durable the moment the backend accepts it; the delay header rides the
// stored value, so maturity survives a restart.
func (t *Table) PushDelayed(priority int64, delay time.Duration, value []byte) {
	ready := int64(0)
	if delay > 0 {
		ready = t.now().Add(delay).UnixMilli()
	}
	t.inner.Push(priority, wrapValue(0, ready, value))
	t.obs.delayIns.Inc()
}

// Pop retires the minimum *ready* element immediately — DeleteMin
// semantics, no lease: claim, then ack on the spot. On a durable backend
// only the ack is logged, one record like a plain pop.
func (t *Table) Pop() (int64, []byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	it, ok := t.claimLocked()
	if !ok {
		return 0, nil, false
	}
	t.lsr.Ack(it.token)
	return it.prio, it.value, true
}

// Peek returns the minimum element without consuming it. It may show an
// immature element (peeking cannot sift without consuming); Len-style
// monitoring should prefer the probe set.
func (t *Table) Peek() (int64, []byte, bool) {
	prio, stored, ok := t.inner.Peek()
	if !ok {
		return 0, nil, false
	}
	_, _, value := unwrapValue(stored)
	return prio, value, true
}

// Len counts elements a consumer will eventually see: ready elements in
// the backend plus parked immature ones. Leased and dead-lettered
// elements are excluded (in flight / diverted).
func (t *Table) Len() int {
	t.mu.Lock()
	parked := len(t.delayed)
	t.mu.Unlock()
	return t.inner.Len() + parked
}

// claimLocked claims the minimum ready element from the backend — the
// one claim loop Pop and PopLease share. Immature elements met on the
// way are parked on the deadline heap and surface again at maturity;
// over-budget ones divert to the dead-letter FIFO. Both stay claimed,
// so crash-live on a durable backend. Caller holds t.mu.
func (t *Table) claimLocked() (item, bool) {
	for {
		token, prio, stored, ok := t.lsr.LeaseMin()
		if !ok {
			return item{}, false
		}
		deliveries, ready, value := unwrapValue(stored)
		// it stays off the heap: only parking and diverting, which keep
		// the element, copy it there.
		it := item{token: token, prio: prio, value: value, deliveries: deliveries, readyMilli: ready}
		if ready != 0 && t.parkLocked(it) {
			continue
		}
		if t.overBudget(deliveries) {
			d := it
			t.divertLocked(&d)
			continue
		}
		return it, true
	}
}

// parkLocked puts an immature element on the deadline heap and reports
// true; a mature one returns false untouched. Caller holds t.mu.
func (t *Table) parkLocked(it item) bool {
	now := t.now()
	if it.readyMilli <= now.UnixMilli() {
		return false
	}
	p := new(item)
	*p = it
	t.seq++
	t.delayed[t.seq] = p
	at := t.since(time.UnixMilli(it.readyMilli))
	t.due.push(at, t.seq, &p.pos)
	t.armLocked(at, t.since(now))
	return true
}

// overBudget reports whether an element delivered this many times must
// go to the dead-letter FIFO.
func (t *Table) overBudget(deliveries uint32) bool {
	return t.cfg.MaxDeliveries > 0 && int(deliveries) >= t.cfg.MaxDeliveries
}

// divertLocked sends an over-budget element to the dead-letter FIFO.
// Caller holds t.mu.
func (t *Table) divertLocked(it *item) {
	t.dead = append(t.dead, it)
	t.obs.deadLetters.Inc()
	t.cfg.Flight.Anomaly(flight.KDeadLetter, 0, int64(it.deliveries))
}

// --- the lease protocol ----------------------------------------------

// PopLease claims the minimum ready element: the element leaves the
// queue but is not retired, and the returned lease must be Acked before
// deadline or the element is redelivered. ttl <= 0 selects the default.
// dead selects the dead-letter queue instead of the main one.
// ok=false means the selected queue has no ready element.
func (t *Table) PopLease(ttl time.Duration, dead bool) (leaseID uint64, prio int64, deadline time.Time, value []byte, ok bool) {
	if ttl <= 0 {
		ttl = t.cfg.TTL
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var e *item
	if dead {
		if len(t.dead) == 0 {
			return 0, 0, time.Time{}, nil, false
		}
		e = t.dead[0]
		t.dead[0] = nil // unpin the item from the backing array
		t.dead = t.dead[1:]
		e.fromDead = true
	} else {
		it, ok := t.claimLocked()
		if !ok {
			return 0, 0, time.Time{}, nil, false
		}
		e = &it
	}
	now := t.now()
	t.seq++
	id := t.seq
	e.deliveries++
	e.deadline, e.granted = now.Add(ttl), now
	t.leases[id] = e
	at := t.since(e.deadline)
	t.due.push(at, id, &e.pos)
	t.armLocked(at, t.since(now))
	t.obs.grants.Inc()
	return id, e.prio, e.deadline, e.value, true
}

// Ack retires a leased element for good. false means the lease is not
// held: never granted, already acked, or expired-and-requeued (the
// element will be delivered again — the at-least-once caveat).
func (t *Table) Ack(leaseID uint64) bool {
	t.mu.Lock()
	e, ok := t.leases[leaseID]
	if !ok {
		t.missLocked(leaseID)
		t.mu.Unlock()
		return false
	}
	delete(t.leases, leaseID)
	t.unscheduleLocked(e.pos)
	t.lsr.Ack(e.token)
	t.obs.acks.Inc()
	t.obs.held.Observe(t.now().Sub(e.granted))
	t.obs.deliveries.ObserveN(uint64(e.deliveries))
	t.mu.Unlock()
	return true
}

// Nack returns a leased element to its queue immediately — "I can't do
// this work" — counting as a completed (failed) delivery.
func (t *Table) Nack(leaseID uint64) bool {
	t.mu.Lock()
	e, ok := t.leases[leaseID]
	if !ok {
		t.missLocked(leaseID)
		t.mu.Unlock()
		return false
	}
	delete(t.leases, leaseID)
	t.unscheduleLocked(e.pos)
	t.releaseLocked(e)
	t.obs.nacks.Inc()
	t.mu.Unlock()
	return true
}

// Extend pushes a live lease's deadline out by ttl from now (ttl <= 0
// selects the default). The extension is deliberately not durable: a
// crash forgets extensions and redelivers conservatively.
func (t *Table) Extend(leaseID uint64, ttl time.Duration) (time.Time, bool) {
	if ttl <= 0 {
		ttl = t.cfg.TTL
	}
	t.mu.Lock()
	e, ok := t.leases[leaseID]
	if !ok {
		t.missLocked(leaseID)
		t.mu.Unlock()
		return time.Time{}, false
	}
	now := t.now()
	e.deadline = now.Add(ttl)
	at := t.since(e.deadline)
	t.due[e.pos].at = at
	t.due.fix(e.pos)
	t.armLocked(at, t.since(now))
	t.obs.extends.Inc()
	deadline := e.deadline
	t.mu.Unlock()
	return deadline, true
}

// missLocked classifies an Ack/Nack/Extend for a lease the table does
// not hold: a recently-expired ID is the expiry/ack race (the consumer
// finished but the deadline won); anything else is just unknown.
func (t *Table) missLocked(leaseID uint64) {
	t.obs.noLease.Inc()
	if expiredAt, raced := t.recent[leaseID]; raced {
		t.obs.ackRaces.Inc()
		t.cfg.Flight.Anomaly(flight.KLeaseAckRace, 0, int64(t.now().Sub(expiredAt)))
	}
}

// releaseLocked sends a no-longer-leased element where it belongs:
// dead-letter FIFO when it came from there or is over budget, otherwise
// back to its queue with the delivery header bumped. Caller holds t.mu.
func (t *Table) releaseLocked(e *item) {
	e.readyMilli = 0
	if !e.fromDead && !t.overBudget(e.deliveries) {
		t.lsr.Requeue(e.token, e.prio, e.stored())
		return
	}
	// The grant bumped the delivery count in memory only; persist it so a
	// crash resurrects the element already over budget (the first pop
	// attempt after recovery re-diverts it).
	t.lsr.Rewrite(e.token, e.prio, e.stored())
	if e.fromDead {
		t.dead = append(t.dead, e)
	} else {
		t.divertLocked(e)
	}
}

// --- expiry -----------------------------------------------------------

// noWake marks the background timer disarmed.
const noWake = math.MaxInt64

// unscheduleLocked drops heap slot i, disarming the timer once nothing
// is left to expire. Caller holds t.mu.
func (t *Table) unscheduleLocked(i int) {
	t.due.remove(i)
	if len(t.due) == 0 {
		t.disarmLocked()
	}
}

func (t *Table) disarmLocked() {
	if t.wake != noWake {
		t.timer.Stop()
		t.wake = noWake
	}
}

// armLocked makes the background timer fire by deadline at, or by
// t.floor if that is later. It resets the timer only when that comes
// before the time already armed, so while leases stay live, traffic
// with one TTL touches the timer about once per TTL. Caller holds t.mu.
func (t *Table) armLocked(at, now int64) {
	if t.timer == nil {
		return
	}
	at = max(at, t.floor)
	if at >= t.wake {
		return
	}
	t.wake = at
	t.timer.Reset(time.Duration(at - now))
}

// fire is the timer's callback: one background Sweep, unless Close has
// stopped the table.
func (t *Table) fire() {
	t.mu.Lock()
	if t.timer == nil {
		t.mu.Unlock()
		return
	}
	t.sweeps.Add(1)
	t.mu.Unlock()
	defer t.sweeps.Done()
	t.Sweep()
}

// Sweep expires every lease whose deadline has come (requeue + delivery
// bump) and matures every delayed element whose time has come, then
// re-arms the background timer for the next deadline, at least Tick
// from now. It runs on that timer; exposed for tests and for tables
// without one.
func (t *Table) Sweep() {
	now := t.now()
	at := t.since(now)
	t.mu.Lock()
	expired, matured := 0, 0
	for len(t.due) > 0 && t.due[0].at <= at {
		id := t.due[0].id
		t.due.remove(0)
		if e, ok := t.leases[id]; ok {
			delete(t.leases, id)
			t.rememberLocked(id, now)
			t.releaseLocked(e)
			t.obs.expires.Inc()
			// Expiry is expected traffic under at-least-once, not an
			// anomaly: Record keeps it in the rings without stealing
			// the rate-limited capture from a real storm/race pull.
			t.cfg.Flight.Record(flight.KLeaseExpire, 0, int64(e.deliveries))
			expired++
			continue
		}
		if d, ok := t.delayed[id]; ok {
			delete(t.delayed, id)
			t.lsr.Requeue(d.token, d.prio, d.stored())
			t.obs.delayReady.Inc()
			matured++
		}
	}
	t.floor = at + int64(t.cfg.Tick)
	t.disarmLocked()
	if len(t.due) > 0 {
		t.armLocked(t.due[0].at, at)
	}
	if expired >= t.cfg.StormThreshold {
		t.obs.storms.Inc()
		t.cfg.Flight.Anomaly(flight.KRedeliveryStorm, 0, int64(expired))
	}
	t.mu.Unlock()
	// Commit outside t.mu: a sync-mode commit may lead an fsync, and the
	// table must not stall behind it. A failed commit has poisoned the
	// log, and every later client commit reports it.
	if expired+matured > 0 {
		_ = t.lsr.Commit()
	}
}

// rememberLocked records an expired lease ID for ack-race detection,
// bounding the ring at recentCap.
func (t *Table) rememberLocked(leaseID uint64, at time.Time) {
	if len(t.recentFIFO) >= recentCap {
		delete(t.recent, t.recentFIFO[0])
		t.recentFIFO = t.recentFIFO[1:]
	}
	t.recent[leaseID] = at
	t.recentFIFO = append(t.recentFIFO, leaseID)
}

// --- drain ------------------------------------------------------------

// NackAll returns every outstanding lease to its queue (normal nack
// semantics, including dead-letter diversion) and re-enqueues every
// parked delayed element — the graceful-drain step that runs after the
// last client connection closes and before the WAL's final sync, so the
// shutdown snapshot carries every in-flight element. Returns the number
// of leases nacked back.
func (t *Table) NackAll() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.leases)
	for id, e := range t.leases {
		delete(t.leases, id)
		t.unscheduleLocked(e.pos)
		t.releaseLocked(e)
		t.obs.nacks.Inc()
	}
	for id, d := range t.delayed {
		delete(t.delayed, id)
		t.unscheduleLocked(d.pos)
		t.lsr.Requeue(d.token, d.prio, d.stored())
	}
	return n
}

// Outstanding returns the number of live leases.
func (t *Table) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.leases)
}

// DeadLen returns the dead-letter queue depth.
func (t *Table) DeadLen() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.dead)
}

// Close stops the background sweep and waits for one in flight. It does
// not touch outstanding leases; call NackAll first on a graceful drain.
func (t *Table) Close() {
	t.mu.Lock()
	t.disarmLocked()
	t.timer = nil
	t.mu.Unlock()
	t.sweeps.Wait()
}

// --- the deadline heap ------------------------------------------------

// deadlines is a binary min-heap of pending deadlines: lease expiries
// and delayed maturities. A slot keeps its deadline inline (nanoseconds
// since Table.start), so sifting compares integers without chasing a
// pointer, and points at its owner's heap index, which every move keeps
// current.
type deadlines []slot

type slot struct {
	at  int64
	id  uint64 // lease or parked-item ID
	pos *int
}

func (h *deadlines) push(at int64, id uint64, pos *int) {
	*pos = len(*h)
	*h = append(*h, slot{at, id, pos})
	h.fix(*pos)
}

// remove deletes slot i.
func (h *deadlines) remove(i int) {
	last := len(*h) - 1
	h.swap(i, last)
	(*h)[last] = slot{}
	*h = (*h)[:last]
	if i < last {
		h.fix(i)
	}
}

// fix moves slot i, whose deadline is new, up or down to its place.
func (h deadlines) fix(i int) {
	for i > 0 && h[(i-1)/2].at > h[i].at {
		h.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
	for {
		c := 2*i + 1
		if c+1 < len(h) && h[c+1].at < h[c].at {
			c++
		}
		if c >= len(h) || h[i].at <= h[c].at {
			return
		}
		h.swap(i, c)
		i = c
	}
}

func (h deadlines) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	*h[i].pos = i
	*h[j].pos = j
}
