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
// *wal.Queue: LeaseMin claims the min while keeping it snapshot-live,
// Ack retires it durably, Requeue rewrites it (carrying the bumped
// delivery header). A crash at ANY point between grant and ack leaves
// the element live on disk, so recovery conservatively redelivers —
// never loses — in-flight work. On a plain in-memory backend the same
// protocol runs without the durability (token 0, no-op acks).
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
}

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
	// Metrics enables the "skipqueue.lease" probe set.
	Metrics bool
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

// entry is one outstanding lease.
type entry struct {
	token      uint64 // durable identity (0 on a plain backend)
	prio       int64
	value      []byte // bare value, header stripped
	deliveries uint32 // completed+current deliveries (this grant included)
	deadline   time.Time
	granted    time.Time
	pos        int  // index in Table.due
	fromDead   bool // granted off the dead-letter queue
}

// delayedEntry is one immature element sifted out of the backend,
// parked until its ready time.
type delayedEntry struct {
	token      uint64
	prio       int64
	value      []byte
	deliveries uint32
	readyMilli int64
	pos        int // index in Table.due
}

// deadItem is one dead-lettered element. Its durable token stays leased
// (never acked) so the element remains crash-live until drained.
type deadItem struct {
	token      uint64
	prio       int64
	value      []byte
	deliveries uint32
}

// probes is the "skipqueue.lease" observability set.
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

func newProbes(enabled bool) probes {
	if !enabled {
		return probes{}
	}
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
	lsr   Leaser // nil on a plain backend
	obs   probes
	now   func() time.Time // injectable for tests

	mu      sync.Mutex
	due     deadlines // every lease deadline and delayed maturity
	start   time.Time // deadlines are nanosecond offsets from start
	seq     uint64    // lease / delayed-entry ID allocator
	leases  map[uint64]*entry
	delayed map[uint64]*delayedEntry
	dead    []deadItem

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
		obs:     newProbes(cfg.Metrics),
		now:     time.Now,
		leases:  map[uint64]*entry{},
		delayed: map[uint64]*delayedEntry{},
		recent:  map[uint64]time.Time{},
		wake:    noWake,
	}
	t.lsr, _ = inner.(Leaser)
	t.start = t.now()
	if cfg.Tick > 0 {
		// Created disarmed: the first deadline arms it (armLocked).
		t.timer = time.AfterFunc(time.Hour, t.fire)
		t.timer.Stop()
	}
	return t
}

// Snapshot reads the table's probe set (zero without Config.Metrics).
func (t *Table) Snapshot() obs.Snapshot { return t.obs.set.Snapshot() }

// Durable reports whether lease transitions are crash-safe (the backend
// implements Leaser).
func (t *Table) Durable() bool { return t.lsr != nil }

// since maps an instant to its deadline-heap offset. Instants read off
// the table's clock carry a monotonic reading, so a wall-clock step
// cannot move a lease deadline.
func (t *Table) since(at time.Time) int64 { return int64(at.Sub(t.start)) }

// --- backend indirection (durable when the backend allows it) ---------

func (t *Table) leaseInner() (token uint64, prio int64, stored []byte, ok bool) {
	if t.lsr != nil {
		return t.lsr.LeaseMin()
	}
	prio, stored, ok = t.inner.Pop()
	return 0, prio, stored, ok
}

func (t *Table) ackInner(token uint64) {
	if t.lsr != nil {
		t.lsr.Ack(token)
	}
}

func (t *Table) rewriteInner(token uint64, prio int64, stored []byte) {
	if t.lsr != nil {
		t.lsr.Rewrite(token, prio, stored)
	}
}

func (t *Table) requeueInner(token uint64, prio int64, stored []byte) {
	if t.lsr != nil {
		t.lsr.Requeue(token, prio, stored)
		return
	}
	t.inner.Push(prio, stored)
}

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
// semantics, no lease. Immature elements encountered on the way are
// parked on the deadline heap (staying crash-live on a durable backend)
// and surface again at maturity.
func (t *Table) Pop() (int64, []byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		token, prio, stored, ok := t.leaseInner()
		if !ok {
			return 0, nil, false
		}
		deliveries, ready, value := unwrapValue(stored)
		if t.siftLocked(token, prio, deliveries, ready, value) {
			continue
		}
		if t.divertLocked(token, prio, deliveries, value) {
			continue
		}
		// Retire on the spot. On a durable backend this is lease+ack —
		// two records, but a crash between them duplicates instead of
		// losing, strictly the safer failure for a retired element.
		t.ackInner(token)
		return prio, value, true
	}
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

// siftLocked parks an immature element on the deadline heap and reports
// true; mature elements return false untouched. Caller holds t.mu.
func (t *Table) siftLocked(token uint64, prio int64, deliveries uint32, readyMilli int64, value []byte) bool {
	now := t.now()
	if readyMilli == 0 || readyMilli <= now.UnixMilli() {
		return false
	}
	t.seq++
	id := t.seq
	d := &delayedEntry{token: token, prio: prio, value: value,
		deliveries: deliveries, readyMilli: readyMilli}
	t.delayed[id] = d
	at := t.since(time.UnixMilli(readyMilli))
	t.due.push(at, id, &d.pos)
	t.armLocked(at, t.since(now))
	return true
}

// divertLocked sends an over-budget element to the dead-letter FIFO and
// reports true. The durable token stays leased (never acked), so the
// dead letter remains crash-live until drained. Caller holds t.mu.
func (t *Table) divertLocked(token uint64, prio int64, deliveries uint32, value []byte) bool {
	if t.cfg.MaxDeliveries <= 0 || int(deliveries) < t.cfg.MaxDeliveries {
		return false
	}
	t.dead = append(t.dead, deadItem{token: token, prio: prio, value: value, deliveries: deliveries})
	t.obs.deadLetters.Inc()
	t.cfg.Flight.Anomaly(flight.KDeadLetter, 0, int64(deliveries))
	return true
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
	if dead {
		if len(t.dead) == 0 {
			return 0, 0, time.Time{}, nil, false
		}
		it := t.dead[0]
		t.dead[0] = deadItem{} // unpin the value from the backing array
		t.dead = t.dead[1:]
		return t.grantLocked(it.token, it.prio, it.deliveries, it.value, ttl, true)
	}
	for {
		token, p, stored, popped := t.leaseInner()
		if !popped {
			return 0, 0, time.Time{}, nil, false
		}
		deliveries, ready, v := unwrapValue(stored)
		if t.siftLocked(token, p, deliveries, ready, v) {
			continue
		}
		if t.divertLocked(token, p, deliveries, v) {
			continue
		}
		return t.grantLocked(token, p, deliveries, v, ttl, false)
	}
}

// grantLocked issues a lease over an element already claimed from the
// backend. Caller holds t.mu.
func (t *Table) grantLocked(token uint64, prio int64, completed uint32, value []byte, ttl time.Duration, fromDead bool) (uint64, int64, time.Time, []byte, bool) {
	now := t.now()
	t.seq++
	id := t.seq
	e := &entry{
		token:      token,
		prio:       prio,
		value:      value,
		deliveries: completed + 1,
		deadline:   now.Add(ttl),
		granted:    now,
		fromDead:   fromDead,
	}
	t.leases[id] = e
	at := t.since(e.deadline)
	t.due.push(at, id, &e.pos)
	t.armLocked(at, t.since(now))
	t.obs.grants.Inc()
	return id, prio, e.deadline, value, true
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
	t.ackInner(e.token)
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
func (t *Table) releaseLocked(e *entry) {
	if e.fromDead || (t.cfg.MaxDeliveries > 0 && int(e.deliveries) >= t.cfg.MaxDeliveries) {
		t.dead = append(t.dead, deadItem{token: e.token, prio: e.prio, value: e.value, deliveries: e.deliveries})
		// The grant bumped the delivery count in memory only; persist it
		// so a crash resurrects the element already over budget (the
		// first pop attempt after recovery re-diverts it).
		t.rewriteInner(e.token, e.prio, wrapValue(e.deliveries, 0, e.value))
		if !e.fromDead {
			t.obs.deadLetters.Inc()
			t.cfg.Flight.Anomaly(flight.KDeadLetter, 0, int64(e.deliveries))
		}
		return
	}
	t.requeueInner(e.token, e.prio, wrapValue(e.deliveries, 0, e.value))
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
			t.requeueInner(d.token, d.prio, wrapValue(d.deliveries, d.readyMilli, d.value))
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
	if t.lsr != nil && expired+matured > 0 {
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
		t.requeueInner(d.token, d.prio, wrapValue(d.deliveries, d.readyMilli, d.value))
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
	id  uint64 // lease or delayed-entry ID
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
