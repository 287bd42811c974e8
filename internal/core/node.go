package core

import (
	"sync"
	"sync/atomic"

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
//   - key and value are the paper's key and value (value split into val and
//     an atomic pointer, below); seq extends the key to a (key, seq) position;
//   - links is the tower: level i's next pointer and lock(node, i);
//   - state folds the paper's timeStamp and deleted flag into one word, and
//     makes its whole-node lock unnecessary (see state).
//
// Like the paper's record it is one allocation: newNode carves node and
// tower out of one size-classed block.
type node[K ordered, V any] struct {
	// key and seq are the node's position: nodes order by key, then by seq
	// (see before). Map-style callers leave seq zero; the multiset adapters
	// give every element its own.
	key K
	seq uint64

	// val is the value the node was inserted with; it is written once,
	// before the node is published, and read only through value.
	val V

	// value is stored behind an atomic pointer so that the update-in-place
	// path of Insert and the value read in DeleteMin are race-free. It
	// starts out pointing at the node's own val; an update swaps in a boxed
	// replacement. A nil pointer means the value has been consumed by a
	// DeleteMin (see Queue.InsertSeq for the update/delete arbitration
	// protocol).
	value atomic.Pointer[V]

	// state is the node's life in one word, moving only forward:
	//
	//   - vclock.MaxTime while Insert links the tower (Figure 10 line 19);
	//   - the completion stamp, a clock value ≥ 1, once every level is
	//     spliced (Figure 10 line 29);
	//   - negative once a deleter wins the claim (the SWAP of Figure 11
	//     line 5): the negated claim ticket on a traced queue, −1 otherwise.
	//
	// Only a stamped node can be claimed, strict or relaxed, so a claimed
	// node is always fully linked and remove never meets a half-linked one:
	// the fact the paper's whole-node lock (Figure 10 line 20, Figure 11
	// line 27) establishes. A traced claim's ticket is drawn just before the
	// winning CAS, so it orders the claims as the Section 4.2 proof does.
	state atomic.Int64

	// links[i] is level i (0-based; level 0 is the full linked list).
	links []link[K, V]
}

// inlineLevels is the tallest tower newNode embeds in the node's own
// allocation; a tower grows past it with probability p^8.
const inlineLevels = 8

// node1 … node8 are the allocation size classes: a node followed by its
// tower, so that links slices memory of the same block.
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
		tower [inlineLevels]link[K, V]
	}
)

// newNode allocates a node with the given tower height, node and tower in
// one block up to inlineLevels. The state starts at MaxTime so no deleter
// claims the node until the insertion completes.
func newNode[K ordered, V any](key K, seq uint64, value V, level int) *node[K, V] {
	var n *node[K, V]
	switch {
	case level <= 1:
		b := new(node1[K, V])
		n, b.links = &b.node, b.tower[:level]
	case level <= 2:
		b := new(node2[K, V])
		n, b.links = &b.node, b.tower[:level]
	case level <= 4:
		b := new(node4[K, V])
		n, b.links = &b.node, b.tower[:level]
	case level <= inlineLevels:
		b := new(node8[K, V])
		n, b.links = &b.node, b.tower[:level]
	default:
		n = &node[K, V]{links: make([]link[K, V], level)}
	}
	n.key, n.seq, n.val = key, seq, value
	n.value.Store(&n.val)
	n.state.Store(vclock.MaxTime)
	return n
}

// before reports whether n sorts strictly before (key, seq).
func (n *node[K, V]) before(key K, seq uint64) bool {
	return n.key < key || (n.key == key && n.seq < seq)
}

// level returns the tower height of the node.
func (n *node[K, V]) level() int { return len(n.links) }

// loadNext returns the level-i successor.
func (n *node[K, V]) loadNext(i int) *node[K, V] { return n.links[i].next.Load() }

// storeNext sets the level-i successor. Callers must hold n.links[i].mu
// except during single-threaded construction.
func (n *node[K, V]) storeNext(i int, to *node[K, V]) { n.links[i].next.Store(to) }
