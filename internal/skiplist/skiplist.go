// Package skiplist implements Pugh's concurrent skiplist ("Concurrent
// Maintenance of Skip Lists", UMD CS-TR-2222, 1989), the substrate on which
// the SkipQueue of Lotan and Shavit is built. It is a concurrent ordered map
// with per-node, per-level locks and no global synchronization:
//
//   - a node is inserted one level at a time from bottom to top, holding
//     only the lock of the level being spliced;
//   - a node is deleted one level at a time from top to bottom, holding the
//     predecessor's and the node's own lock for that level;
//   - a node counts as present as soon as its bottom level is linked, so
//     disconnected upper levels never affect correctness, only search cost;
//   - a removed node's forward pointer is redirected backwards, so
//     concurrent traversers holding a reference to it fall back to a live
//     predecessor instead of skipping unvisited keys.
//
// The package is used directly as an ordered-map substrate (for example by
// the branch-and-bound example to deduplicate states) and serves as the
// reference implementation for the locking discipline that internal/core
// extends with delete-min.
package skiplist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"skipqueue/internal/obs"
	"skipqueue/internal/xrand"
)

// ordered mirrors cmp.Ordered: the key types the list can sort.
type ordered interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr |
		~float32 | ~float64 | ~string
}

const (
	// DefaultMaxLevel bounds tower heights; see core.DefaultMaxLevel.
	DefaultMaxLevel = 24
	// DefaultP is Pugh's recommended level probability for skip lists used
	// as search structures (1/4 minimizes expected cost per element).
	DefaultP = 0.25
)

type link[K ordered, V any] struct {
	mu   sync.Mutex
	next atomic.Pointer[node[K, V]]
}

type node[K ordered, V any] struct {
	key    K
	value  atomic.Pointer[V]
	nodeMu sync.Mutex
	links  []link[K, V]
}

func (n *node[K, V]) level() int { return len(n.links) }

// List is a concurrent sorted map from K to V. Construct with New.
// All methods are safe for concurrent use.
type List[K ordered, V any] struct {
	maxLevel int
	p        float64
	head     *node[K, V]
	tail     *node[K, V]
	size     atomic.Int64
	seed     atomic.Uint64
	obs      probes
}

// probes are the list's observability hooks, all nil unless WithMetrics was
// given to New. Pugh's locking discipline serializes only on per-node,
// per-level locks, so the contention signals are how often getLock has to
// re-acquire after losing a race and how long the splice sections hold locks.
type probes struct {
	set *obs.Set

	setLat      *obs.Hist    // Set, entry to return
	deleteLat   *obs.Hist    // Delete, entry to return
	lockHold    *obs.Hist    // splice/unlink section, first lock to last unlock
	lockRetries *obs.Counter // getLock/getLockVictim re-acquisitions
}

func newProbes(enabled bool) probes {
	if !enabled {
		return probes{}
	}
	set := obs.NewSet("skipqueue.skiplist")
	return probes{
		set:         set,
		setLat:      set.Durations("set"),
		deleteLat:   set.Durations("delete"),
		lockHold:    set.Durations("lock.hold"),
		lockRetries: set.Counter("lock.retries"),
	}
}

// Obs returns the list's probe set (nil without WithMetrics).
func (l *List[K, V]) Obs() *obs.Set { return l.obs.set }

// ObsSnapshot reads every probe once (relaxed snapshot; see core.Queue.Stats
// for the discipline).
func (l *List[K, V]) ObsSnapshot() obs.Snapshot { return l.obs.set.Snapshot() }

// Option configures a List.
type Option func(*options)

type options struct {
	maxLevel int
	p        float64
	seed     uint64
	metrics  bool
}

// WithMaxLevel bounds tower heights at n levels.
func WithMaxLevel(n int) Option { return func(o *options) { o.maxLevel = n } }

// WithP sets the geometric level probability.
func WithP(p float64) Option { return func(o *options) { o.p = p } }

// WithSeed seeds the level generator for reproducible tower shapes.
func WithSeed(s uint64) Option { return func(o *options) { o.seed = s } }

// WithMetrics enables the observability probes (latency histograms and lock
// contention counters). Disabled, every probe site is one nil check.
func WithMetrics() Option { return func(o *options) { o.metrics = true } }

// New returns an empty list.
func New[K ordered, V any](opts ...Option) *List[K, V] {
	o := options{maxLevel: DefaultMaxLevel, p: DefaultP}
	for _, fn := range opts {
		fn(&o)
	}
	if o.maxLevel <= 0 {
		o.maxLevel = DefaultMaxLevel
	}
	if o.p <= 0 || o.p >= 1 {
		o.p = DefaultP
	}
	l := &List[K, V]{maxLevel: o.maxLevel, p: o.p, obs: newProbes(o.metrics)}
	l.seed.Store(o.seed)
	var zero K
	l.tail = &node[K, V]{key: zero, links: make([]link[K, V], o.maxLevel)}
	l.head = &node[K, V]{key: zero, links: make([]link[K, V], o.maxLevel)}
	for i := 0; i < o.maxLevel; i++ {
		l.head.links[i].next.Store(l.tail)
	}
	return l
}

// Len returns the number of keys in the list (snapshot under concurrency).
func (l *List[K, V]) Len() int { return int(l.size.Load()) }

func (l *List[K, V]) randomLevel() int {
	r := xrand.Seeded(l.seed.Add(0x9e3779b97f4a7c15))
	return r.GeometricLevel(l.p, l.maxLevel)
}

// getLock advances node1 along level to the last node with key < key, locks
// it, and revalidates (Figure 9 of the Lotan/Shavit paper, identical to
// Pugh's original).
func (l *List[K, V]) getLock(node1 *node[K, V], key K, level int) *node[K, V] {
	node2 := node1.links[level].next.Load()
	for node2 != l.tail && node2.key < key {
		node1 = node2
		node2 = node1.links[level].next.Load()
	}
	node1.links[level].mu.Lock()
	node2 = node1.links[level].next.Load()
	for node2 != l.tail && node2.key < key {
		l.obs.lockRetries.Add(1)
		node1.links[level].mu.Unlock()
		node1 = node2
		node1.links[level].mu.Lock()
		node2 = node1.links[level].next.Load()
	}
	return node1
}

// search returns the predecessor array for key: saved[i] is the last node on
// level i with key < key.
func (l *List[K, V]) search(key K, saved []*node[K, V]) {
	n := l.head
	for i := l.maxLevel - 1; i >= 0; i-- {
		nx := n.links[i].next.Load()
		for nx != l.tail && nx.key < key {
			n = nx
			nx = n.links[i].next.Load()
		}
		saved[i] = n
	}
}

// Get returns the value stored at key.
func (l *List[K, V]) Get(key K) (V, bool) {
	var zero V
	n := l.head
	for i := l.maxLevel - 1; i >= 0; i-- {
		nx := n.links[i].next.Load()
		for nx != l.tail && nx.key < key {
			n = nx
			nx = n.links[i].next.Load()
		}
	}
	n = n.links[0].next.Load()
	// A backward pointer left by a concurrent deletion may have bounced us
	// to a predecessor; walk forward until the key range is resolved.
	for n != l.tail && n.key < key {
		n = n.links[0].next.Load()
	}
	if n != l.tail && n.key == key {
		if v := n.value.Load(); v != nil {
			return *v, true
		}
	}
	return zero, false
}

// Contains reports whether key is present.
func (l *List[K, V]) Contains(key K) bool {
	_, ok := l.Get(key)
	return ok
}

// Set inserts key with value, or replaces the existing value. It reports
// whether a new node was inserted (false means updated in place).
func (l *List[K, V]) Set(key K, value V) bool {
	var t0 time.Time
	metered := l.obs.set.Enabled()
	if metered {
		t0 = time.Now()
	}
	saved := make([]*node[K, V], l.maxLevel)
retry:
	l.search(key, saved)

	node1 := l.getLock(saved[0], key, 0)
	var hold0 time.Time
	if metered {
		hold0 = time.Now()
	}
	node2 := node1.links[0].next.Load()
	if node2 != l.tail && node2.key == key {
		if node2.value.Load() == nil {
			// The node was claimed by a concurrent Delete (its value was
			// swapped to nil under this same predecessor lock) and is being
			// unlinked right now. Storing into it would resurrect it: a
			// second Delete could then claim it again and, after the first
			// unlink completes, spin forever trying to unlink a node no
			// longer reachable at any level. Let the deleter finish and
			// redo the operation from the search.
			node1.links[0].mu.Unlock()
			l.obs.lockRetries.Add(1)
			runtime.Gosched()
			goto retry
		}
		node2.value.Store(&value)
		node1.links[0].mu.Unlock()
		l.obs.lockHold.Since(hold0)
		l.obs.setLat.Since(t0)
		return false
	}

	level := l.randomLevel()
	nn := &node[K, V]{key: key, links: make([]link[K, V], level)}
	nn.value.Store(&value)
	nn.nodeMu.Lock()
	for i := 0; i < level; i++ {
		if i != 0 {
			node1 = l.getLock(saved[i], key, i)
		}
		nn.links[i].next.Store(node1.links[i].next.Load())
		node1.links[i].next.Store(nn)
		node1.links[i].mu.Unlock()
	}
	nn.nodeMu.Unlock()
	l.size.Add(1)
	l.obs.lockHold.Since(hold0)
	l.obs.setLat.Since(t0)
	return true
}

// Delete removes key and returns its value. It reports false when the key is
// absent. Concurrent Deletes of the same key resolve to exactly one winner.
func (l *List[K, V]) Delete(key K) (V, bool) {
	var zero V
	var t0 time.Time
	metered := l.obs.set.Enabled()
	if metered {
		t0 = time.Now()
	}
	saved := make([]*node[K, V], l.maxLevel)
	l.search(key, saved)

	// Claim the node under the bottom-level predecessor lock, so two
	// deleters of the same key cannot both proceed: the loser finds the key
	// already gone (or the node's value consumed).
	node1 := l.getLock(saved[0], key, 0)
	victim := node1.links[0].next.Load()
	if victim == l.tail || victim.key != key {
		node1.links[0].mu.Unlock()
		l.obs.deleteLat.Since(t0)
		return zero, false
	}
	vp := victim.value.Swap(nil)
	node1.links[0].mu.Unlock()
	if vp == nil {
		// Another deleter claimed it first and is unlinking it now.
		l.obs.deleteLat.Since(t0)
		return zero, false
	}

	victim.nodeMu.Lock() // wait out a concurrent insertion of this node
	var hold0 time.Time
	if metered {
		hold0 = time.Now()
	}
	for i := victim.level() - 1; i >= 0; i-- {
		n1 := l.getLockVictim(saved[i], victim, i)
		victim.links[i].mu.Lock()
		n1.links[i].next.Store(victim.links[i].next.Load())
		victim.links[i].next.Store(n1) // backward pointer for live traversers
		victim.links[i].mu.Unlock()
		n1.links[i].mu.Unlock()
	}
	victim.nodeMu.Unlock()
	l.size.Add(-1)
	l.obs.lockHold.Since(hold0)
	l.obs.deleteLat.Since(t0)
	return *vp, true
}

// victimYieldEvery bounds the busy retries of getLockVictim: after this
// many restarts from the head the goroutine yields the processor. The
// restart loop makes progress only when a concurrent deleter advances, so
// an unbounded spin can livelock — two deleters chasing each other's
// backward pointers can occupy every processor the scheduler will give
// them (reliably reproducible under the race detector, which serializes
// goroutines enough that the spinning deleter starves the one it is
// waiting on). Yielding hands the processor to that deleter; eight
// restarts is far beyond what a successful chase needs.
const victimYieldEvery = 8

// getLockVictim locks the immediate level-i predecessor of victim,
// identified by pointer.
func (l *List[K, V]) getLockVictim(start, victim *node[K, V], level int) *node[K, V] {
	node1 := start
	node2 := node1.links[level].next.Load()
	for node2 != victim && node2 != l.tail && !(victim.key < node2.key) {
		node1 = node2
		node2 = node1.links[level].next.Load()
	}
	node1.links[level].mu.Lock()
	restarts := 0
	for node1.links[level].next.Load() != victim {
		l.obs.lockRetries.Add(1)
		node2 = node1.links[level].next.Load()
		if node2 == l.tail || victim.key < node2.key {
			node1.links[level].mu.Unlock()
			restarts++
			if restarts%victimYieldEvery == 0 {
				runtime.Gosched()
			}
			node1 = l.head
			node1.links[level].mu.Lock()
			continue
		}
		node1.links[level].mu.Unlock()
		node1 = node2
		node1.links[level].mu.Lock()
	}
	return node1
}

// Min returns the smallest key and its value.
func (l *List[K, V]) Min() (K, V, bool) {
	var zk K
	var zv V
	n := l.head.links[0].next.Load()
	for n != l.tail {
		if v := n.value.Load(); v != nil {
			return n.key, *v, true
		}
		n = n.links[0].next.Load()
	}
	return zk, zv, false
}

// Range calls fn for each key/value in ascending order until fn returns
// false. The iteration is a best-effort snapshot under concurrency.
func (l *List[K, V]) Range(fn func(K, V) bool) {
	n := l.head.links[0].next.Load()
	var last *K
	for n != l.tail {
		// Skip backward bounces from concurrent deletions.
		if last != nil && !(*last < n.key) {
			n = n.links[0].next.Load()
			continue
		}
		if v := n.value.Load(); v != nil {
			k := n.key
			if !fn(k, *v) {
				return
			}
			last = &k
		}
		n = n.links[0].next.Load()
	}
}

// Keys returns all keys in ascending order (snapshot).
func (l *List[K, V]) Keys() []K {
	var out []K
	l.Range(func(k K, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CheckInvariants verifies level ordering and tower consistency on a
// quiescent list, returning the bottom-level node count.
func (l *List[K, V]) CheckInvariants() (int, bool) {
	onBottom := map[*node[K, V]]bool{}
	count := 0
	for n := l.head.links[0].next.Load(); n != l.tail; n = n.links[0].next.Load() {
		onBottom[n] = true
		count++
		if nx := n.links[0].next.Load(); nx != l.tail && !(n.key < nx.key) {
			return 0, false
		}
	}
	for i := 1; i < l.maxLevel; i++ {
		var prev *node[K, V]
		for n := l.head.links[i].next.Load(); n != l.tail; n = n.links[i].next.Load() {
			if !onBottom[n] || n.level() <= i {
				return 0, false
			}
			if prev != nil && !(prev.key < n.key) {
				return 0, false
			}
			prev = n
		}
	}
	return count, true
}
