// Package core implements the SkipQueue of Lotan and Shavit
// ("Skiplist-Based Concurrent Priority Queues", IPPS 2000): a concurrent
// priority queue built on Pugh's lock-based concurrent skiplist.
//
// The structure follows the paper's pseudocode closely:
//
//   - Insert (Figure 10) searches for the predecessor at every level and
//     splices the new node in one level at a time from bottom to top,
//     holding only one predecessor level-lock at a time. When the key
//     is already present the value is updated in place. Nodes order by
//     (key, seq): Insert is InsertSeq with seq 0, and the multiset adapters
//     give every element its own seq so equal keys coexist in arrival order.
//   - DeleteMin (Figure 11) reads the shared clock, traverses the bottom
//     level from the head, skips nodes whose completion timestamp is newer
//     than its own start time, and claims the first unclaimed node with a
//     CAS on its state word (see node.state). It then performs the ordinary
//     skiplist deletion: top-down, two locks per level, unlinking the
//     incoming pointer first and then pointing the removed node backwards so
//     concurrent traversers that still hold a reference simply fall back.
//     Unlike the paper, the per-level lock walk finds the predecessors
//     itself, with no MaxLevel-deep search first.
//
// The relaxed variant of Section 5.4 is the same code without the start
// time; it may return a stamped element inserted concurrently with the
// DeleteMin if that element is smaller than the strict minimum.
//
// All locking is distributed: there is no root lock, and rebalancing is
// probabilistic, which is the property the paper exploits to scale past
// heap-based queues. Three queue-wide words stay shared, each on cache
// lines of its own: the timestamp clock (the Definition 1 stamps),
// levelSeed (one add per Insert) and, one layer up, the multiset adapters'
// FIFO seq. The counters behind Stats and Len are spread over padded
// shards, so no other word is written by every operation.
package core

import (
	"runtime"
	"sync/atomic"

	"skipqueue/internal/flight"
	"skipqueue/internal/obs"
	"skipqueue/internal/vclock"
	"skipqueue/internal/xrand"
)

// ordered is the constraint for priority keys. It mirrors cmp.Ordered and is
// spelled out here so the package documents exactly what it relies on:
// a total order given by < on the key type.
type ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}

// DefaultMaxLevel caps node towers at 2^24 expected elements with p = 0.5,
// and far more with p = 0.25. The paper sets maxLevel = log N for an assumed
// bound N on the queue size; 24 is a generous default for that bound.
const DefaultMaxLevel = 24

// DefaultP is the probability that a node's tower grows one more level.
// The paper's skiplist (Pugh) uses a geometric distribution; p = 0.5 gives
// the classic "half the nodes per level" structure described in Section 2.
const DefaultP = 0.5

// Config carries the tunables of a Queue. The zero value is usable: it is
// normalized to the defaults by New.
type Config struct {
	// MaxLevel bounds tower height (the paper's queue->maxLevel). New caps
	// it at 64, the tallest tower a node's size classes hold.
	MaxLevel int
	// P is the geometric level probability (the paper's p).
	P float64
	// Relaxed disables the timestamp mechanism (Section 5.4). DeleteMin
	// then may return an item whose Insert was concurrent with it, if that
	// item sorts before the strict minimum.
	Relaxed bool
	// Seed seeds the level generator. Two queues with the same seed and the
	// same single-threaded operation sequence build identical towers.
	Seed uint64
	// Flight, if non-nil, receives a flight-recorder event for every lock
	// re-acquisition (flight.KLockRetry, arg = level). The recorder is
	// nil-safe, so a nil Flight costs one nil check per contention site.
	Flight *flight.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxLevel <= 0 {
		c.MaxLevel = DefaultMaxLevel
	}
	c.MaxLevel = min(c.MaxLevel, maxTowerLevel)
	if c.P <= 0 || c.P >= 1 {
		c.P = DefaultP
	}
	return c
}

// Stats are monotonically increasing operation counters, readable at any
// time with Queue.Stats. They power the benchmark harness and the
// contention analyses in EXPERIMENTS.md.
type Stats struct {
	Inserts     uint64 // completed insertions of new keys
	Updates     uint64 // insertions that updated an existing key in place
	DeleteMins  uint64 // DeleteMin calls that returned an element
	Empties     uint64 // DeleteMin calls that returned empty
	ScanSteps   uint64 // bottom-level nodes visited by DeleteMin scans
	ScanSkips   uint64 // nodes skipped because marked or too young
	LockRetries uint64 // getLock re-acquisitions after a concurrent change
}

const (
	cacheLine   = 64 // the false-sharing unit the Queue layout pads to
	statsShards = 16 // a power of two; obs.ShardHint picks one per operation
)

// statsShard is one shard of the operation counters, the queue's only
// counts: Stats and ObsSnapshot both sum them. The trailing line keeps two
// shards' counters a cache line apart wherever the Queue is allocated.
type statsShard struct {
	inserts     atomic.Uint64
	updates     atomic.Uint64
	deleteMins  atomic.Uint64
	empties     atomic.Uint64
	scanSteps   atomic.Uint64
	scanSkips   atomic.Uint64 // marked and young skips; young = scanSkips − markedSkips
	markedSkips atomic.Uint64 // scan steps over already-claimed nodes, lost claims included
	claimFails  atomic.Uint64 // claim SWAPs lost to a racing deleter
	lockRetries atomic.Uint64
	_           [cacheLine]byte
}

// Queue is the SkipQueue. It is safe for any number of goroutines to call
// Insert and DeleteMin concurrently. Construct with New. The fields up to
// tracer are read-mostly; each word that operations write follows on cache
// lines of its own (TestSharedWordsOwnLines).
type Queue[K ordered, V any] struct {
	cfg  Config
	head *node[K, V] // sentinel, full-height tower, key unused
	tail *node[K, V] // sentinel terminating every level, key unused

	// tracer, when non-nil, receives one event per completed operation,
	// carrying the clock stamps the correctness proof of Section 4.2 orders
	// operations by. Set with SetTracer before any concurrent use; used by
	// the Definition 1 checker (internal/lincheck).
	tracer func(TraceEvent[K])

	_     [cacheLine]byte
	clock vclock.Clock
	_     [cacheLine]byte

	// levelSeed feeds per-goroutine level generators: each call that needs
	// a tower height derives a fresh generator state with an atomic add, so
	// concurrent Inserts never contend on a shared RNG.
	levelSeed atomic.Uint64
	_         [cacheLine]byte

	stats [statsShards]statsShard
}

// TraceEvent describes one completed operation for history checking.
type TraceEvent[K ordered] struct {
	// Insert is true for an Insert that linked a new node, false for a
	// DeleteMin. (Updates of existing keys are not traced.)
	Insert bool
	// Key and Seq are the inserted or the deleted element's position (valid
	// if OK); Seq is zero for plain Insert.
	Key K
	Seq uint64
	// OK is false for a DeleteMin that returned EMPTY.
	OK bool
	// Stamp is the insert's completion timestamp (the value written to the
	// node, drawn before the write — Figure 10 line 29), or the delete's
	// serialization timestamp (its successful SWAP for a successful delete,
	// its response for an EMPTY one) — the serialization points used by the
	// paper's proof.
	Stamp int64
	// Done, for inserts, is drawn after the timestamp write completed: the
	// earliest evidence that the insert's last instruction has executed.
	// An insert precedes a delete in real time iff its response precedes
	// the delete's invocation; Done < delete.Start is the checkable
	// sufficient condition (Stamp alone is drawn before the write and can
	// lag arbitrarily behind its own store).
	Done int64
	// Start is the delete's invocation timestamp (the clock read of Figure
	// 11 line 1); zero for inserts.
	Start int64
}

// SetTracer installs fn to observe operations. It must be called before the
// queue is shared between goroutines and requires the strict (default)
// ordering mode, whose clock reads define the recorded stamps.
func (q *Queue[K, V]) SetTracer(fn func(TraceEvent[K])) {
	if q.cfg.Relaxed {
		panic("core: SetTracer requires the strict ordering mode")
	}
	q.tracer = fn
}

// New returns an empty SkipQueue configured by cfg.
func New[K ordered, V any](cfg Config) *Queue[K, V] {
	cfg = cfg.withDefaults()
	q := &Queue[K, V]{cfg: cfg}
	q.levelSeed.Store(cfg.Seed)
	var zeroK K
	var zeroV V
	q.tail = newNode(zeroK, 0, zeroV, cfg.MaxLevel)
	q.head = newNode(zeroK, 0, zeroV, cfg.MaxLevel)
	// Sentinels are born claimed: a DeleteMin scan that bounces onto the
	// head via a removed node's backward pointer (see remove) must skip it,
	// never claim it.
	q.head.state.Store(-1<<levelBits | int64(cfg.MaxLevel))
	q.tail.state.Store(-1<<levelBits | int64(cfg.MaxLevel))
	for i := 0; i < cfg.MaxLevel; i++ {
		q.head.storeNext(i, q.tail)
		q.tail.storeNext(i, nil)
	}
	return q
}

// Len returns Inserts minus DeleteMins: exact when the queue is quiescent, a
// best-effort snapshot otherwise. A delete can claim a node (and count)
// before the node's Insert counts, so DeleteMins is read first and the
// result floored at 0.
func (q *Queue[K, V]) Len() int {
	var deleted, inserted uint64
	for i := range q.stats {
		deleted += q.stats[i].deleteMins.Load()
	}
	for i := range q.stats {
		inserted += q.stats[i].inserts.Load()
	}
	return int(max(inserted, deleted) - deleted)
}

// shard returns the calling operation's stats shard.
func (q *Queue[K, V]) shard() *statsShard {
	return &q.stats[obs.ShardHint()&(statsShards-1)]
}

// Now draws a fresh stamp from the queue's shared logical clock — the same
// clock Insert and DeleteMin serialize on. Front-ends that serialize
// operations outside the skiplist (internal/elim's exchange path) draw
// their serialization stamps here so a merged history stays totally ordered
// by one clock and remains checkable by internal/lincheck.
func (q *Queue[K, V]) Now() int64 { return q.clock.Now() }

// Relaxed reports whether the queue runs in relaxed (no-timestamp) mode.
func (q *Queue[K, V]) Relaxed() bool { return q.cfg.Relaxed }

// MaxLevel returns the configured tower-height cap.
func (q *Queue[K, V]) MaxLevel() int { return q.cfg.MaxLevel }

// Stats returns a snapshot of the operation counters.
//
// Snapshot semantics are deliberately relaxed: each field sums one atomic
// load per shard, taken shard by shard in a single pass with no lock and no
// seqlock, so the struct as a whole is not a consistent cut of a running
// queue — an operation completing concurrently with Stats may be visible in
// one field and not another (e.g. ScanSteps without its DeleteMins). What IS
// guaranteed: each field is monotone across calls, and on a quiescent queue
// the snapshot is exact. obs.Set.Snapshot follows the same discipline.
func (q *Queue[K, V]) Stats() Stats {
	var s Stats
	for i := range q.stats {
		sh := &q.stats[i]
		s.Inserts += sh.inserts.Load()
		s.Updates += sh.updates.Load()
		s.DeleteMins += sh.deleteMins.Load()
		s.Empties += sh.empties.Load()
		s.ScanSteps += sh.scanSteps.Load()
		s.ScanSkips += sh.scanSkips.Load()
		s.LockRetries += sh.lockRetries.Load()
	}
	return s
}

// ObsSnapshot publishes the contention counters as the "skipqueue.core"
// probe set, summed from the stats shards when it is called (relaxed
// snapshot, see Stats). Each shard's markedSkips is read before its
// scanSkips, the reverse of DeleteMin's adds, so the young skips never read
// negative.
func (q *Queue[K, V]) ObsSnapshot() obs.Snapshot {
	var lockRetries, claimFails, marked, skips, steps uint64
	for i := range q.stats {
		sh := &q.stats[i]
		lockRetries += sh.lockRetries.Load()
		claimFails += sh.claimFails.Load()
		marked += sh.markedSkips.Load()
		skips += sh.scanSkips.Load()
		steps += sh.scanSteps.Load()
	}
	return obs.Snapshot{Name: "skipqueue.core", Enabled: true, Counters: []obs.CounterValue{
		{Name: "lock.retries", Value: lockRetries},
		{Name: "claim.cas_fails", Value: claimFails},
		{Name: "scan.marked_skips", Value: marked},
		{Name: "scan.young_skips", Value: skips - marked},
		{Name: "scan.steps", Value: steps},
	}}
}

// randomLevel implements the paper's randomLevel (Figure 9): a geometric
// draw capped at maxLevel.
func (q *Queue[K, V]) randomLevel() int {
	r := xrand.Seeded(q.levelSeed.Add(0x9e3779b97f4a7c15))
	return r.GeometricLevel(q.cfg.P, q.cfg.MaxLevel)
}

// precedes reports whether n sorts strictly before (key, seq). The sentinels
// carry no key: the head precedes everything — a traversal can land on it
// through a removed node's backward pointer — and the tail nothing.
func (q *Queue[K, V]) precedes(n *node[K, V], key K, seq uint64) bool {
	return n != q.tail && (n == q.head || n.before(key, seq))
}

// beyond reports whether n sorts strictly after victim, with the same
// sentinel rule as precedes.
func (q *Queue[K, V]) beyond(n, victim *node[K, V]) bool {
	return n == q.tail || (n != q.head && victim.before(n.key, n.seq))
}

// getLock implements the paper's getLock (Figure 9): starting from node1,
// advance along level to the last node before (key, seq), lock that node's
// level, then re-validate and slide the lock forward past any node that was
// inserted (or any backward pointer left by a deletion) before the lock was
// won. On return the caller holds node1.link(level).mu. Re-acquisitions
// count in st, the operation's stats shard.
func (q *Queue[K, V]) getLock(st *statsShard, node1 *node[K, V], key K, seq uint64, level int) *node[K, V] {
	node2 := node1.loadNext(level)
	for q.precedes(node2, key, seq) {
		node1 = node2
		node2 = node1.loadNext(level)
	}
	node1.link(level).mu.Lock()
	node2 = node1.loadNext(level)
	for q.precedes(node2, key, seq) {
		q.lockRetry(st, level)
		node1.link(level).mu.Unlock()
		node1 = node2
		node1.link(level).mu.Lock()
		node2 = node1.loadNext(level)
	}
	return node1
}

// getLockFor is the deletion variant of getLock: it locks the immediate
// level-i predecessor of a specific victim node, identified by pointer, not
// key. Identifying by pointer matters because the library tolerates a
// transient second node with an equal key (see the update/retry protocol in
// Insert); unlinking by key alone could splice out both.
func (q *Queue[K, V]) getLockFor(st *statsShard, start, victim *node[K, V], level int) *node[K, V] {
	node1 := start
	node2 := node1.loadNext(level)
	for node2 != victim && !q.beyond(node2, victim) {
		node1 = node2
		node2 = node1.loadNext(level)
	}
	node1.link(level).mu.Lock()
	for node1.loadNext(level) != victim {
		node2 = node1.loadNext(level)
		if q.beyond(node2, victim) {
			// The victim is not reachable ahead of node1 on this level.
			// This can only be a transient view caused by a backward
			// pointer; restart from the head.
			q.lockRetry(st, level)
			node1.link(level).mu.Unlock()
			node1 = q.head
			node1.link(level).mu.Lock()
			continue
		}
		q.lockRetry(st, level)
		node1.link(level).mu.Unlock()
		node1 = node2
		node1.link(level).mu.Lock()
	}
	return node1
}

// lockRetry counts one lock re-acquisition at level.
func (q *Queue[K, V]) lockRetry(st *statsShard, level int) {
	st.lockRetries.Add(1)
	q.cfg.Flight.Record(flight.KLockRetry, 0, int64(level))
}

// search fills saved with, for each level, the last node before (key, seq)
// (Figure 10 lines 1–9). saved must have length MaxLevel.
func (q *Queue[K, V]) search(key K, seq uint64, saved []*node[K, V]) {
	node1 := q.head
	for i := q.cfg.MaxLevel - 1; i >= 0; i-- {
		node2 := node1.loadNext(i)
		for q.precedes(node2, key, seq) {
			node1 = node2
			node2 = node1.loadNext(i)
		}
		saved[i] = node1
	}
}

// savedBuf returns the predecessor scratch for one Insert: the caller's
// stack array, or a heap slice only when MaxLevel was configured past it.
func (q *Queue[K, V]) savedBuf(stack *[DefaultMaxLevel]*node[K, V]) []*node[K, V] {
	if q.cfg.MaxLevel > len(stack) {
		return make([]*node[K, V], q.cfg.MaxLevel)
	}
	return stack[:q.cfg.MaxLevel]
}

// InsertResult reports what an Insert did.
type InsertResult int

const (
	// Inserted means a new node was linked into the queue.
	Inserted InsertResult = iota
	// Updated means an existing node with the same key had its value
	// replaced in place (the paper's UPDATED return, Figure 10 line 15).
	Updated
)

// Insert adds key with the given value, or replaces the value of an existing
// equal key (Figure 10). It returns whether a node was inserted or updated.
func (q *Queue[K, V]) Insert(key K, value V) InsertResult {
	return q.InsertSeq(key, 0, value)
}

// InsertSeq is Insert at position (key, seq): nodes order by key first and
// seq second, so elements with equal keys and distinct seqs coexist and drain
// in seq order, and only an equal (key, seq) is updated in place.
//
// When the existing equal node has already been claimed by a concurrent
// DeleteMin, the paper's code would overwrite a value that is about to be
// (or already was) handed out, silently losing the insert. Here an update
// takes lock(node, 0) after the predecessor's, as remove does, and writes
// only an unclaimed node; the deleter reads the value in remove's level-0
// step, after its claim. An Insert that finds the node claimed retries from
// scratch and links a fresh node, so no inserted value is ever lost.
func (q *Queue[K, V]) InsertSeq(key K, seq uint64, value V) InsertResult {
	st := q.shard()
	var stack [DefaultMaxLevel]*node[K, V]
	savedNodes := q.savedBuf(&stack)
	for {
		q.search(key, seq, savedNodes)

		// Lock level 0 of the predecessor; if the position is taken, update
		// in place under that lock (Figure 10 lines 10–16).
		node1 := q.getLock(st, savedNodes[0], key, seq, 0)
		node2 := node1.loadNext(0)
		if node2 != q.tail && node2.key == key && node2.seq == seq {
			node2.link(0).mu.Lock()
			claimed := node2.state.Load() < 0
			if !claimed {
				node2.val = value
			}
			node2.link(0).mu.Unlock()
			node1.link(0).mu.Unlock()
			if !claimed {
				st.updates.Add(1)
				return Updated
			}
			// A DeleteMin claimed the node before our lock: it is logically
			// dead, so retry with a fresh node once it is unlinked.
			runtime.Gosched()
			continue
		}

		level := q.randomLevel()
		nn := newNode(key, seq, value, level)

		for i := 0; i < level; i++ {
			if i != 0 { // level 0 is already locked
				node1 = q.getLock(st, savedNodes[i], key, seq, i)
			}
			nn.storeNext(i, node1.loadNext(i))
			node1.storeNext(i, nn)
			node1.link(i).mu.Unlock()
		}

		stamp := q.clock.Now()
		nn.state.Store(stamp<<levelBits | int64(level)) // Figure 10 line 29; now deleters may claim nn
		st.inserts.Add(1)
		if q.tracer != nil {
			q.tracer(TraceEvent[K]{Insert: true, Key: key, Seq: seq, OK: true, Stamp: stamp, Done: q.clock.Now()})
		}
		return Inserted
	}
}

// Load links n elements into an empty queue in one pass: at(i) returns the
// i-th element, and the elements must come in strictly ascending (key, seq)
// order. Sorted input needs no search and no lock: each node is linked
// after the last node of each of its levels. Towers come from the same
// randomLevel sequence, so a given Seed builds exactly the towers a sorted
// InsertSeq loop would; each node is stamped from the clock, counted as an
// insert and traced like one. Load must finish before the queue is shared
// between goroutines; it panics on a non-empty queue or out-of-order input.
func (q *Queue[K, V]) Load(n int, at func(i int) (key K, seq uint64, value V)) {
	if q.head.loadNext(0) != q.tail {
		panic("core: Load on a non-empty queue")
	}
	var stack [DefaultMaxLevel]*node[K, V]
	last := q.savedBuf(&stack) // the last node linked on each level
	for i := range last {
		last[i] = q.head
	}
	for i := 0; i < n; i++ {
		key, seq, value := at(i)
		if last[0] != q.head && !last[0].before(key, seq) {
			panic("core: Load input is not in ascending (key, seq) order")
		}
		level := q.randomLevel()
		nn := newNode(key, seq, value, level)
		for l := range level {
			last[l].storeNext(l, nn)
			last[l] = nn
		}
		stamp := q.clock.Now()
		nn.state.Store(stamp<<levelBits | int64(level))
		if q.tracer != nil {
			q.tracer(TraceEvent[K]{Insert: true, Key: key, Seq: seq, OK: true, Stamp: stamp, Done: q.clock.Now()})
		}
	}
	for l, nd := range last {
		nd.storeNext(l, q.tail)
	}
	q.shard().inserts.Add(uint64(n))
}

// DeleteMin removes and returns the minimum element (Figure 11). In strict
// mode the returned element is the minimum of all elements whose insertions
// completed before this call began, minus previously deleted elements
// (Definition 1 of the paper); in relaxed mode a smaller, concurrently
// inserted element may be returned instead. ok is false when no eligible
// element exists.
func (q *Queue[K, V]) DeleteMin() (key K, value V, ok bool) {
	key, _, value, ok = q.DeleteMinSeq()
	return key, value, ok
}

// DeleteMinSeq is DeleteMin that also returns the element's seq.
func (q *Queue[K, V]) DeleteMinSeq() (key K, seq uint64, value V, ok bool) {
	t := linking // relaxed: any stamped node is claimable
	if !q.cfg.Relaxed {
		t = q.clock.Now() // Figure 11 line 1
	}

	// Scan the bottom level for the first claimable node (lines 2–10). The
	// claim (the SWAP of line 5) is a CAS of the node's state from its
	// stamp to a negative mark, keeping the height; a traced queue marks
	// with the negated ticket it draws just before the CAS, see node.state.
	// One load of the state per step both gates the claim and attributes
	// the skip: an already-claimed node is deletion contention, a too-new
	// (or missing) stamp is the ordering at work. The scan counts in
	// locals, added to the operation's stats shard once.
	var claim int64
	var steps, skips, marked, lost uint64
	victim := q.head.loadNext(0)
	for victim != q.tail {
		steps++
		if s := victim.state.Load(); s < 0 {
			marked++
		} else if s>>levelBits < t {
			mark := int64(-1)
			if q.tracer != nil {
				claim = q.clock.Now()
				mark = -claim
			}
			if victim.state.CompareAndSwap(s, mark<<levelBits|s&levelMask) {
				break
			}
			// Lost the SWAP to a racing deleter: the node is marked now.
			lost++
			marked++
		}
		skips++
		victim = victim.loadNext(0)
	}
	st := q.shard()
	st.scanSteps.Add(steps)
	st.scanSkips.Add(skips)
	if marked != 0 {
		st.markedSkips.Add(marked)
	}
	if lost != 0 {
		st.claimFails.Add(lost)
	}
	if victim == q.tail {
		st.empties.Add(1)
		if q.tracer != nil {
			// An EMPTY delete serializes at its response (Section 4.2).
			q.tracer(TraceEvent[K]{Start: t, Stamp: q.clock.Now()})
		}
		return key, 0, value, false // EMPTY (line 14)
	}
	key, seq = victim.key, victim.seq
	st.deleteMins.Add(1)
	value = q.remove(st, victim)
	if q.tracer != nil {
		q.tracer(TraceEvent[K]{Key: key, Seq: seq, OK: true, Start: t, Stamp: claim})
	}
	return key, seq, value, true
}

// remove unlinks a claimed node from every level and returns its value, read
// under lock(victim, 0) (Figure 11 lines 23–37): top-down, holding the
// predecessor's and the victim's level locks, pointing the victim backwards
// (line 32) so concurrent traversers holding it fall back to a live node. The paper's whole-node lock (line 27)
// is not needed: only a stamped node is claimed, and its insertion linked
// every level before the stamp (see node.state). The search of
// lines 15–22 is folded into the lock walk: each level starts from the
// predecessor found one level up (the head on top), which precedes the
// victim, so getLockFor walks on from it or from its backward pointer.
func (q *Queue[K, V]) remove(st *statsShard, victim *node[K, V]) (value V) {
	for i, node1 := victim.level()-1, q.head; i >= 0; i-- {
		node1 = q.getLockFor(st, node1, victim, i)
		victim.link(i).mu.Lock()
		node1.storeNext(i, victim.loadNext(i))
		victim.storeNext(i, node1) // point backwards (line 32)
		if i == 0 {
			value = victim.val
		}
		victim.link(i).mu.Unlock()
		node1.link(i).mu.Unlock()
	}
	return value
}

// PeekMin returns the current minimum without removing it. The result is
// advisory: by the time the caller acts on it, a concurrent DeleteMin may
// have claimed the element. Like a relaxed DeleteMin it passes over a node
// whose insert is still linking, so a caller that peeks shards and claims
// from the smallest (internal/sharded) never chases an element no DeleteMin
// may take yet. ok is false when the queue has no such element.
func (q *Queue[K, V]) PeekMin() (key K, value V, ok bool) {
	key, _, value, ok = q.PeekMinSeq()
	return key, value, ok
}

// PeekMinSeq is PeekMin that also returns the element's seq. It reads the
// value under lock(node, 0), where an in-place update writes it.
func (q *Queue[K, V]) PeekMinSeq() (key K, seq uint64, value V, ok bool) {
	if n := q.peek(); n != q.tail {
		n.link(0).mu.Lock()
		defer n.link(0).mu.Unlock()
		return n.key, n.seq, n.val, true
	}
	return key, 0, value, false
}

// PeekMinPos is PeekMinSeq without the value, so it takes no lock.
func (q *Queue[K, V]) PeekMinPos() (key K, seq uint64, ok bool) {
	n := q.peek()
	return n.key, n.seq, n != q.tail
}

// peek returns the first stamped, unclaimed node, or the tail.
func (q *Queue[K, V]) peek() (n *node[K, V]) {
	for n = q.head.loadNext(0); n != q.tail; n = n.loadNext(0) {
		if s := n.state.Load(); s >= 0 && s>>levelBits < linking {
			break
		}
	}
	return n
}

// Each calls fn with the position of every unclaimed element in ascending
// order. It is intended for tests and debugging on quiescent queues; under
// concurrency the snapshot is best-effort.
func (q *Queue[K, V]) Each(fn func(key K, seq uint64)) {
	for n := q.head.loadNext(0); n != q.tail; n = n.loadNext(0) {
		if n.state.Load() >= 0 {
			fn(n.key, n.seq)
		}
	}
}

// CollectKeys appends the keys of all unclaimed elements in ascending order
// (see Each).
func (q *Queue[K, V]) CollectKeys(dst []K) []K {
	q.Each(func(key K, _ uint64) { dst = append(dst, key) })
	return dst
}

// checkLevels verifies (on a quiescent queue) that every level is sorted and
// that every node on level i is present on all lower levels. It returns the
// number of nodes on the bottom level. Tests use it as the structural
// invariant of the skiplist.
func (q *Queue[K, V]) checkLevels() (int, error) {
	onBottom := map[*node[K, V]]bool{}
	count := 0
	for n := q.head.loadNext(0); n != q.tail; n = n.loadNext(0) {
		onBottom[n] = true
		count++
		if nx := n.loadNext(0); nx != q.tail && !n.before(nx.key, nx.seq) {
			return 0, errOutOfOrder
		}
	}
	for i := 1; i < q.cfg.MaxLevel; i++ {
		var prev *node[K, V]
		for n := q.head.loadNext(i); n != q.tail; n = n.loadNext(i) {
			if !onBottom[n] {
				return 0, errLevelOrphan
			}
			if n.level() <= i {
				return 0, errLevelHeight
			}
			if prev != nil && !prev.before(n.key, n.seq) {
				return 0, errOutOfOrder
			}
			prev = n
		}
	}
	return count, nil
}
