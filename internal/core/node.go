package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"skipqueue/internal/vclock"
)

// link is one level of a node: the forward pointer for that level and the
// lock that protects splicing at that pointer (the paper's lock(node, level)).
type link[K ordered, V any] struct {
	mu   sync.Mutex
	next atomic.Pointer[node[K, V]]
}

// node is a SkipQueue record (Figure 1 of the paper), field by field:
//
//   - key and value are the paper's key and value; seq extends the key to a
//     (key, seq) position;
//   - the tower, level i's next pointer and lock(node, i), follows the node
//     in the same block, and link(i) reaches level i;
//   - state folds the paper's level, timeStamp and deleted flag into one
//     word, and makes its whole-node lock unnecessary (see state).
//
// Like the paper's record it is one allocation: newNode carves node and
// tower out of one size-classed block.
type node[K ordered, V any] struct {
	// key and seq are the node's position: nodes order by key, then by seq
	// (see before). Map-style callers leave seq zero; the multiset adapters
	// give every element its own.
	key K
	seq uint64

	// val is the value. newNode writes it before publication; after that an
	// in-place update writes it, and remove and PeekMin read it, all under
	// lock(node, 0) (see Queue.InsertSeq).
	val V

	// state is the node's life in one word, x<<levelBits | height: the low
	// byte is the tower height, which never changes, and x moves only
	// forward:
	//
	//   - linking while Insert links the tower (Figure 10 line 19);
	//   - the completion stamp, a clock value in [1, linking), once every
	//     level is spliced (Figure 10 line 29);
	//   - negative once a deleter wins the claim (the SWAP of Figure 11
	//     line 5): the negated claim ticket on a traced queue, −1 otherwise.
	//
	// Every claim CAS keeps the low byte. Only a stamped node can be
	// claimed, so remove never meets a half-linked one: the fact the paper's
	// whole-node lock (Figure 10 line 20, Figure 11 line 27) establishes. A
	// traced claim's ticket is drawn just before the winning CAS, so it
	// orders the claims as the Section 4.2 proof does.
	state atomic.Int64
}

// levelBits is the width of the height in node.state. linking, the x of a
// node still linking, is the paper's MAX_TIME shifted to make room for it;
// clock stamps stay below it (see vclock.MaxTime).
const (
	levelBits, levelMask = 8, 1<<8 - 1
	linking              = vclock.MaxTime >> levelBits
)

// maxTowerLevel is the tallest tower a size class holds, and so the cap on
// Config.MaxLevel.
const maxTowerLevel = 64

// node1 … node64 are the allocation size classes: a node followed by its
// tower, which link addresses at offset unsafe.Sizeof(node).
type (
	node1[K ordered, V any] struct {
		node[K, V]
		tower [1]link[K, V]
	}
	node2[K ordered, V any] struct {
		node[K, V]
		tower [2]link[K, V]
	}
	node4[K ordered, V any] struct {
		node[K, V]
		tower [4]link[K, V]
	}
	node8[K ordered, V any] struct {
		node[K, V]
		tower [8]link[K, V]
	}
	node16[K ordered, V any] struct {
		node[K, V]
		tower [16]link[K, V]
	}
	node32[K ordered, V any] struct {
		node[K, V]
		tower [32]link[K, V]
	}
	node64[K ordered, V any] struct {
		node[K, V]
		tower [maxTowerLevel]link[K, V]
	}
)

// newNode allocates a node and its tower in one block, of the smallest class
// that holds the height (tall towers and sentinels included). The state starts
// at linking so no deleter claims the node until the insertion completes.
func newNode[K ordered, V any](key K, seq uint64, value V, level int) *node[K, V] {
	var n *node[K, V]
	switch {
	case level <= 1:
		n = &new(node1[K, V]).node
	case level <= 2:
		n = &new(node2[K, V]).node
	case level <= 4:
		n = &new(node4[K, V]).node
	case level <= 8:
		n = &new(node8[K, V]).node
	case level <= 16:
		n = &new(node16[K, V]).node
	case level <= 32:
		n = &new(node32[K, V]).node
	case level <= maxTowerLevel:
		n = &new(node64[K, V]).node
	default:
		panic("core: tower taller than 64 levels")
	}
	n.key, n.seq, n.val = key, seq, value
	n.state.Store(linking<<levelBits | int64(level))
	return n
}

// before reports whether n sorts strictly before (key, seq).
func (n *node[K, V]) before(key K, seq uint64) bool {
	return n.key < key || (n.key == key && n.seq < seq)
}

// level returns the tower height, the low byte of state.
func (n *node[K, V]) level() int { return int(n.state.Load() & levelMask) }

// link returns level i of the tower that newNode placed right after n in
// its block. It loads and checks nothing: newNode's class holds the drawn
// height and walkers only reach levels their node has. The race build's
// checkptr checks the sum stays in n's block, which is why it is spelled
// with uintptr rather than unsafe.Add.
func (n *node[K, V]) link(i int) *link[K, V] {
	return (*link[K, V])(unsafe.Pointer(uintptr(unsafe.Pointer(n)) + unsafe.Sizeof(*n) + uintptr(i)*unsafe.Sizeof(link[K, V]{})))
}

// loadNext returns the level-i successor.
func (n *node[K, V]) loadNext(i int) *node[K, V] { return n.link(i).next.Load() }

// storeNext sets the level-i successor. Callers must hold n.link(i).mu
// except during single-threaded construction.
func (n *node[K, V]) storeNext(i int, to *node[K, V]) { n.link(i).next.Store(to) }
