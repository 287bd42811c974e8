// Package lockfree implements the lock-free successor of the paper's
// SkipQueue: the same algorithmic idea — claim the first unmarked
// bottom-level node of a concurrent skiplist, then physically unlink it —
// built on a CAS-based lock-free skiplist instead of Pugh's lock-based one.
//
// This is the design the Lotan/Shavit queue evolved into in follow-on work
// (Sundell/Tsigas 2003; the version presented in Herlihy & Shavit, "The Art
// of Multiprocessor Programming", chs. 14-15; the queues in the JDK's
// ConcurrentSkipListMap lineage). It is included as the repository's
// "future work" implementation and benchmarked against the lock-based
// original in bench_test.go.
//
// Structure: each node's forward pointers are atomic references to immutable
// (successor, marked) pairs. A node is logically removed from level i by
// CASing its level-i pair to a marked copy; traversals help by physically
// unlinking marked nodes they encounter. DeleteMin claims a node by swapping
// its claimed flag — exactly the paper's SWAP — and the claimer then marks
// every level top-down and lets a final search unlink the node. The
// timestamp mechanism is carried over unchanged, so DeleteMin is strict
// (Definition 1) as in the lock-based original.
package lockfree

import (
	"sync/atomic"

	"skipqueue/internal/obs"
	"skipqueue/internal/vclock"
)

// ordered mirrors cmp.Ordered.
type ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}

// DefaultMaxLevel matches the lock-based queue's default tower cap.
const DefaultMaxLevel = 24

// markable is an immutable (successor, marked) pair. CAS operates on the
// pointer to the pair, so a stale pair can never be confused with a fresh
// one (no ABA).
type markable[K ordered, V any] struct {
	next   *node[K, V]
	marked bool
}

type node[K ordered, V any] struct {
	// key, then seq, is the node's position (see before). Map-style callers
	// leave seq zero; the multiset adapter gives every element its own.
	key   K
	seq   uint64
	value V

	// claimed is the DeleteMin arbitration word: zero while live, the
	// winning DeleteMin's clock ticket once claimed (see the matching field
	// in internal/core for why a ticket rather than a boolean: it records
	// the SWAP serialization order for the Definition 1 checker).
	claimed atomic.Int64
	// stamp is the insertion-completion timestamp (MaxTime until the node
	// is linked at every level).
	stamp atomic.Int64

	next     []atomic.Pointer[markable[K, V]]
	topLevel int // == len(next)
	isTail   bool
}

func (n *node[K, V]) loadNext(level int) *markable[K, V] {
	return n.next[level].Load()
}

// before reports whether n sorts strictly before (key, seq): by key, then by
// seq. The tail sorts after everything.
func (n *node[K, V]) before(key K, seq uint64) bool {
	return !n.isTail && (n.key < key || (n.key == key && n.seq < seq))
}

// at reports whether n sits exactly at (key, seq).
func (n *node[K, V]) at(key K, seq uint64) bool {
	return !n.isTail && n.key == key && n.seq == seq
}

// Config mirrors the lock-based queue's tunables.
type Config struct {
	MaxLevel int
	P        float64
	Seed     uint64
}

// maxLevelCap bounds Config.MaxLevel so the search scratch arrays used by
// Insert and remove can live on the stack (a heap pred/succ slice per
// operation was a measured double-digit share of the delete path).
const maxLevelCap = 32

func (c Config) withDefaults() Config {
	if c.MaxLevel <= 0 {
		c.MaxLevel = DefaultMaxLevel
	}
	if c.MaxLevel > maxLevelCap {
		c.MaxLevel = maxLevelCap
	}
	if c.P <= 0 || c.P >= 1 {
		c.P = 0.5
	}
	return c
}

// Stats are monotone operation counters.
type Stats struct {
	Inserts    uint64
	Updates    uint64
	DeleteMins uint64
	Empties    uint64
	CASRetries uint64 // failed CAS attempts across all operations, lost claims included
	Unlinks    uint64 // physical unlink CASes performed (including helping)
}

const (
	cacheLine   = 64 // the false-sharing unit the counter shards pad to
	statsShards = 16 // a power of two; obs.ShardHint picks one per operation
)

// statsShard is one shard of the operation counters, the queue's only
// counts: Stats and Len sum them. The trailing line keeps two shards'
// counters a cache line apart.
type statsShard struct {
	inserts    atomic.Uint64
	updates    atomic.Uint64
	deleteMins atomic.Uint64
	empties    atomic.Uint64
	casRetries atomic.Uint64 // failed CASes, DeleteMin's lost claims included
	unlinks    atomic.Uint64 // physical unlink CASes (including helping)
	_          [cacheLine]byte
}

// Queue is the lock-free SkipQueue. Construct with New. All methods are
// safe for concurrent use; no operation ever blocks another.
type Queue[K ordered, V any] struct {
	cfg   Config
	clock *vclock.Clock
	head  *node[K, V]
	tail  *node[K, V]

	levelSeed atomic.Uint64

	// tracer, when non-nil, observes operations for history checking
	// (internal/lincheck). Set with SetTracer before concurrent use.
	tracer func(TraceEvent[K])

	_     [cacheLine]byte
	stats [statsShards]statsShard
}

// shard returns the calling operation's stats shard.
func (q *Queue[K, V]) shard() *statsShard {
	return &q.stats[obs.ShardHint()&(statsShards-1)]
}

// TraceEvent mirrors core.TraceEvent for history checking: Key and Seq are
// the inserted or the deleted element's position (Seq is zero for plain
// Insert); Stamp is the insert completion stamp (drawn before its write) or
// the delete's claim ticket (its response for an EMPTY delete); Done, for
// inserts, is drawn after the stamp write completed; Start is the delete's
// initial clock read.
type TraceEvent[K ordered] struct {
	Insert bool
	Key    K
	Seq    uint64
	OK     bool
	Stamp  int64
	Done   int64
	Start  int64
}

// SetTracer installs fn to observe operations. Call before sharing the
// queue.
func (q *Queue[K, V]) SetTracer(fn func(TraceEvent[K])) { q.tracer = fn }

// New returns an empty lock-free SkipQueue.
func New[K ordered, V any](cfg Config) *Queue[K, V] {
	cfg = cfg.withDefaults()
	q := &Queue[K, V]{cfg: cfg, clock: new(vclock.Clock)}
	q.levelSeed.Store(cfg.Seed)
	var zero K
	q.tail = q.newNode(zero, 0, *new(V), cfg.MaxLevel)
	q.tail.isTail = true
	q.head = q.newNode(zero, 0, *new(V), cfg.MaxLevel)
	for i := 0; i < cfg.MaxLevel; i++ {
		q.head.next[i].Store(&markable[K, V]{next: q.tail})
	}
	// Sentinels can never be claimed.
	q.head.claimed.Store(1)
	q.tail.claimed.Store(1)
	return q
}

func (q *Queue[K, V]) newNode(key K, seq uint64, value V, level int) *node[K, V] {
	n := &node[K, V]{key: key, seq: seq, value: value, topLevel: level}
	n.next = make([]atomic.Pointer[markable[K, V]], level)
	n.stamp.Store(vclock.MaxTime)
	return n
}

func (q *Queue[K, V]) randomLevel() int {
	// One splitmix64 draw per coin flip, computed inline. It predates
	// xrand.Seeded, the allocation-free xoshiro constructor core and
	// skiplist draw their levels from, and stays because switching would
	// change every seeded tower this queue builds. The atomic counter
	// keeps draws decorrelated across
	// goroutines; determinism per Seed is preserved only for sequential
	// callers, which is all the experiments rely on.
	s := q.levelSeed.Add(0x9e3779b97f4a7c15)
	l := 1
	for l < q.cfg.MaxLevel {
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if float64(z>>11)/(1<<53) >= q.cfg.P {
			break
		}
		l++
		s += 0x9e3779b97f4a7c15
	}
	return l
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

// Stats returns a snapshot of the operation counters. Each shard is loaded
// atomically; the sum is not a consistent cut of a concurrently mutating
// queue.
func (q *Queue[K, V]) Stats() Stats {
	var s Stats
	for i := range q.stats {
		sh := &q.stats[i]
		s.Inserts += sh.inserts.Load()
		s.Updates += sh.updates.Load()
		s.DeleteMins += sh.deleteMins.Load()
		s.Empties += sh.empties.Load()
		s.CASRetries += sh.casRetries.Load()
		s.Unlinks += sh.unlinks.Load()
	}
	return s
}

// find locates the predecessor and successor of (key, seq) at every level,
// physically unlinking any marked node it passes (the helping protocol).
// It reports whether an unmarked node at exactly (key, seq) was found at
// the bottom level. preds/succs must have length MaxLevel; retries and
// unlinks count in st, the calling operation's stats shard.
func (q *Queue[K, V]) find(st *statsShard, key K, seq uint64, target *node[K, V], preds, succs []*node[K, V]) bool {
retry:
	for {
		pred := q.head
		for level := q.cfg.MaxLevel - 1; level >= 0; level-- {
			curr := pred.loadNext(level).next
			for {
				mk := curr.loadNext(level)
				// Unlink marked nodes encountered at this level.
				for mk != nil && mk.marked {
					predMk := pred.loadNext(level)
					if predMk.next != curr || predMk.marked ||
						!pred.next[level].CompareAndSwap(predMk, &markable[K, V]{next: mk.next}) {
						st.casRetries.Add(1)
						continue retry
					}
					st.unlinks.Add(1)
					curr = mk.next
					mk = curr.loadNext(level)
				}
				// Advance while curr orders before (key, seq) (or, when
				// hunting a specific node during removal, before that exact
				// node).
				if curr.before(key, seq) || (target != nil && curr != target && curr.at(key, seq)) {
					pred = curr
					curr = mk.next
					continue
				}
				break
			}
			preds[level] = pred
			succs[level] = curr
		}
		bottom := succs[0]
		if target != nil {
			return bottom == target
		}
		return bottom.at(key, seq)
	}
}

// Insert adds key with value; it is InsertSeq with seq 0. It reports true
// when a new node was linked, false when an unclaimed equal key already
// exists (that node and its value stay).
func (q *Queue[K, V]) Insert(key K, value V) bool {
	return q.InsertSeq(key, 0, value)
}

// InsertSeq is Insert at position (key, seq): nodes order by key first and
// seq second, so elements with equal keys and distinct seqs coexist and
// drain in seq order, as in internal/core. Only an unclaimed node at an
// equal (key, seq) makes it report false.
//
// As in the lock-based queue, a collision with a node already claimed by a
// DeleteMin retries with a fresh node, so no insert is silently lost.
func (q *Queue[K, V]) InsertSeq(key K, seq uint64, value V) bool {
	st := q.shard()
	var predsA, succsA [maxLevelCap]*node[K, V]
	preds, succs := predsA[:q.cfg.MaxLevel], succsA[:q.cfg.MaxLevel]
	for {
		if q.find(st, key, seq, nil, preds, succs) {
			// Position present: this lock-free variant treats the existing
			// node as current if unclaimed. (A full lock-free replace would
			// need per-node value CAS; the queue's workloads use unique
			// positions.)
			existing := succs[0]
			if existing.claimed.Load() == 0 {
				st.updates.Add(1)
				return false
			}
			// Claimed: it is logically gone; retry until it is unlinked so
			// the new node can take its place.
			st.casRetries.Add(1)
			continue
		}

		topLevel := q.randomLevel()
		nn := q.newNode(key, seq, value, topLevel)
		for i := 0; i < topLevel; i++ {
			nn.next[i].Store(&markable[K, V]{next: succs[i]})
		}
		// Linearization point: link at the bottom level.
		predMk := preds[0].loadNext(0)
		if predMk.next != succs[0] || predMk.marked ||
			!preds[0].next[0].CompareAndSwap(predMk, &markable[K, V]{next: nn}) {
			st.casRetries.Add(1)
			continue
		}

		// Link the upper levels, refreshing the search on interference.
		for level := 1; level < topLevel; level++ {
			for {
				mk := nn.loadNext(level)
				if mk.marked {
					break // a concurrent DeleteMin already claimed and marked us
				}
				succ := succs[level]
				if mk.next != succ {
					if !nn.next[level].CompareAndSwap(mk, &markable[K, V]{next: succ}) {
						st.casRetries.Add(1)
						continue
					}
				}
				predMk := preds[level].loadNext(level)
				if predMk.next == succ && !predMk.marked &&
					preds[level].next[level].CompareAndSwap(predMk, &markable[K, V]{next: nn}) {
					break
				}
				st.casRetries.Add(1)
				q.find(st, key, seq, nn, preds, succs)
			}
		}

		stamp := q.clock.Now()
		nn.stamp.Store(stamp)
		st.inserts.Add(1)
		if q.tracer != nil {
			q.tracer(TraceEvent[K]{Insert: true, Key: key, Seq: seq, OK: true, Stamp: stamp, Done: q.clock.Now()})
		}
		return true
	}
}

// DeleteMin removes and returns the minimum element; semantics match the
// lock-based queue's strict mode.
//
// The scan must never traverse a *marked* node's pointer: a marked pair is
// frozen at marking time, so following it can bypass a smaller key spliced
// in after the freeze — which would violate Definition 1 for an element
// whose insert completed long before this scan began. (This is the
// lock-free analogue of the lock-based algorithm's backward-pointer trick,
// and the Definition 1 checker caught the naive traversal doing exactly
// this.) Instead the scan helps unlink the marked node and re-reads a live
// pointer; every pointer it follows was therefore loaded, unmarked, after
// the scan's start, and cannot skip an eligible element.
func (q *Queue[K, V]) DeleteMin() (key K, value V, ok bool) {
	t := q.clock.Now()
	st := q.shard()
retry:
	for {
		pred := q.head // the head's pairs are never marked
		curr := pred.loadNext(0).next
		for !curr.isTail {
			mk := curr.loadNext(0)
			if mk.marked {
				predMk := pred.loadNext(0)
				if predMk.marked || predMk.next != curr ||
					!pred.next[0].CompareAndSwap(predMk, &markable[K, V]{next: mk.next}) {
					st.casRetries.Add(1)
					continue retry
				}
				st.unlinks.Add(1)
				curr = mk.next
				continue
			}
			if curr.claimed.Load() == 0 && curr.stamp.Load() < t {
				ticket := q.clock.Now()
				if curr.claimed.CompareAndSwap(0, ticket) {
					q.remove(st, curr)
					st.deleteMins.Add(1)
					if q.tracer != nil {
						q.tracer(TraceEvent[K]{Key: curr.key, Seq: curr.seq, OK: true, Start: t, Stamp: ticket})
					}
					return curr.key, curr.value, true
				}
				// Lost the claim race; re-examine curr (it is claimed now
				// and will be skipped or unlinked above).
				st.casRetries.Add(1)
				continue
			}
			pred = curr
			curr = mk.next
		}
		st.empties.Add(1)
		if q.tracer != nil {
			q.tracer(TraceEvent[K]{Start: t, Stamp: q.clock.Now()})
		}
		return key, value, false
	}
}

// remove marks every level of a claimed node top-down, then — for nodes
// with towers — runs a search to physically unlink it (the search's
// helping does the unlinking). Bottom-only nodes skip the search: every
// level-0 scan (DeleteMin, the next find through here) unlinks marked
// nodes it passes anyway, and one lazy unlink CAS on the next scan is far
// cheaper than an eager full-height search per delete.
// Tower nodes keep the eager search because their upper-level links
// lengthen every subsequent search path until someone cleans them.
func (q *Queue[K, V]) remove(st *statsShard, victim *node[K, V]) {
	for level := victim.topLevel - 1; level >= 0; level-- {
		for {
			mk := victim.loadNext(level)
			if mk.marked {
				break
			}
			if victim.next[level].CompareAndSwap(mk, &markable[K, V]{next: mk.next, marked: true}) {
				break
			}
			st.casRetries.Add(1)
		}
	}
	if victim.topLevel <= 1 {
		return
	}
	var predsA, succsA [maxLevelCap]*node[K, V]
	q.find(st, victim.key, victim.seq, victim, predsA[:q.cfg.MaxLevel], succsA[:q.cfg.MaxLevel])
}

// PeekMin returns the current minimum without removing it (advisory).
func (q *Queue[K, V]) PeekMin() (key K, value V, ok bool) {
	curr := q.head.loadNext(0).next
	for !curr.isTail {
		if curr.claimed.Load() == 0 {
			return curr.key, curr.value, true
		}
		curr = curr.loadNext(0).next
	}
	return key, value, false
}

// CollectKeys appends the keys of unclaimed elements in ascending order
// (best-effort snapshot; exact when quiescent).
func (q *Queue[K, V]) CollectKeys(dst []K) []K {
	curr := q.head.loadNext(0).next
	for !curr.isTail {
		if curr.claimed.Load() == 0 {
			dst = append(dst, curr.key)
		}
		curr = curr.loadNext(0).next
	}
	return dst
}

// CheckInvariants verifies, on a quiescent queue, that every level is in
// (key, seq) order, that no unmarked upper-level node is missing from the
// bottom, and that no claimed-but-linked node remains. It returns the
// number of live bottom-level nodes.
func (q *Queue[K, V]) CheckInvariants() (int, bool) {
	onBottom := map[*node[K, V]]bool{}
	count := 0
	for n := q.head.loadNext(0).next; !n.isTail; n = n.loadNext(0).next {
		if n.loadNext(0).marked {
			continue // mid-unlink garbage; tolerated on the bottom walk
		}
		onBottom[n] = true
		count++
		nx := n.loadNext(0).next
		if !nx.isTail && !n.before(nx.key, nx.seq) {
			return 0, false
		}
	}
	for level := 1; level < q.cfg.MaxLevel; level++ {
		var prev *node[K, V]
		for n := q.head.loadNext(level).next; !n.isTail; n = n.loadNext(level).next {
			if n.loadNext(level).marked {
				continue
			}
			if !onBottom[n] {
				return 0, false
			}
			if prev != nil && !prev.before(n.key, n.seq) {
				return 0, false
			}
			prev = n
		}
	}
	return count, true
}
