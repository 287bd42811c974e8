// Package backends is the one table of the queue backends pqd serves. Each
// row names a backend, builds it from pqd's tuning flags, and states the
// contract a sequential client may check it against. cmd/pqd's -backend
// flag is a lookup in Rows, and every per-backend test battery (the root
// churn matrix, the wire property test, the server soak, pqd's boot tests
// and FuzzOps) ranges over it, so adding, pruning or re-basing a backend is
// one row here.
package backends

import (
	"bytes"
	"fmt"
	"strings"

	"skipqueue"
	"skipqueue/internal/server"
)

// Contract is what one sequential client may rely on. Model checks it.
type Contract int

const (
	// Exact: op for op, the backend answers what a local skipqueue.PQ
	// given the same operations answers, so priority order is strict and
	// equal priorities come back FIFO.
	Exact Contract = iota
	// Multiset: each Pop returns a held element (so none smaller than the
	// true minimum), EMPTY comes back only when the queue is empty, and Len
	// is exact.
	Multiset
)

// Params carries pqd's tuning flags and the queue options. A zero count
// selects the backend's default; a row ignores the counts it has no use for.
type Params struct {
	Shards    int // -shards: sharded, elimsharded
	ElimSlots int // -elim-slots: elim, elimsharded
	SprayK    int // -spray-k: spray
	Opts      []skipqueue.Option
}

// Queue is what every row builds: a server backend that also exposes its
// probes.
type Queue interface {
	server.Backend
	skipqueue.Instrumented
}

// Row is one backend.
type Row struct {
	Name     string
	Contract Contract
	New      func(Params) Queue
}

// Rows lists every backend pqd serves.
var Rows = []Row{
	// The paper's strict SkipQueue.
	{"skipqueue", Exact, func(p Params) Queue { return skipqueue.NewPQ[[]byte](p.Opts...) }},
	// The SkipQueue without the timestamp mechanism (§5.4).
	{"relaxed", Exact, func(p Params) Queue {
		return skipqueue.NewPQ[[]byte](append([]skipqueue.Option{skipqueue.WithRelaxed()}, p.Opts...)...)
	}},
	// The CAS-based successor.
	{"lockfree", Exact, func(p Params) Queue { return skipqueue.NewLockFreePQ[[]byte](p.Opts...) }},
	// The single-lock binary heap baseline.
	{"glheap", Exact, func(p Params) Queue { return skipqueue.NewGlobalHeapPQ[[]byte](p.Opts...) }},
	// The relaxed choice-of-two multi-queue.
	{"sharded", Multiset, func(p Params) Queue { return skipqueue.NewShardedPQ[[]byte](p.Shards, p.Opts...) }},
	// The elimination front-end over skipqueue.
	{"elim", Exact, func(p Params) Queue { return skipqueue.NewElimPQ[[]byte](p.ElimSlots, p.Opts...) }},
	// The elimination front-end over sharded.
	{"elimsharded", Multiset, func(p Params) Queue {
		return skipqueue.NewElimShardedPQ[[]byte](p.ElimSlots, p.Shards, p.Opts...)
	}},
	// SprayList-style relaxed near-minimum deletion.
	{"spray", Multiset, func(p Params) Queue { return skipqueue.NewSprayPQ[[]byte](p.SprayK, p.Opts...) }},
}

// Names joins the row names for flag help and errors.
func Names() string {
	names := make([]string, len(Rows))
	for i, r := range Rows {
		names[i] = r.Name
	}
	return strings.Join(names, ", ")
}

// Lookup returns the row called name.
func Lookup(name string) (Row, error) {
	for _, r := range Rows {
		if r.Name == name {
			return r, nil
		}
	}
	return Row{}, fmt.Errorf("unknown backend %q (want one of %s)", name, Names())
}

// Model is the sequential reference for a Contract. Tell it every Push one
// client made and every reply that client got; each check returns an error
// for the first reply the contract forbids.
type Model struct {
	ref  *skipqueue.PQ[[]byte] // Exact: the local queue every reply must match
	held map[string]int        // Multiset: multiplicity per priority/value pair
	size int
}

// Model returns an empty model of c.
func (c Contract) Model() *Model {
	if c == Exact {
		return &Model{ref: skipqueue.NewPQ[[]byte]()}
	}
	return &Model{held: map[string]int{}}
}

func heldKey(prio int64, value []byte) string { return fmt.Sprintf("%d/%q", prio, value) }

// Push records an insert.
func (m *Model) Push(prio int64, value []byte) {
	m.size++
	if m.ref != nil {
		m.ref.Push(prio, value)
	} else {
		m.held[heldKey(prio, value)]++
	}
}

// Len is the length the queue must report.
func (m *Model) Len() int { return m.size }

// Pop checks a Pop reply and retires what it returned.
func (m *Model) Pop(prio int64, value []byte, ok bool) error {
	if m.ref != nil {
		lp, lv, lok := m.ref.Pop()
		m.size = m.ref.Len()
		return match("Pop", prio, value, ok, lp, lv, lok)
	}
	if err := m.check("Pop", prio, value, ok); err != nil || !ok {
		return err
	}
	k := heldKey(prio, value)
	if m.held[k]--; m.held[k] == 0 {
		delete(m.held, k)
	}
	m.size--
	return nil
}

// Peek checks a Peek reply.
func (m *Model) Peek(prio int64, value []byte, ok bool) error {
	if m.ref != nil {
		lp, lv, lok := m.ref.Peek()
		return match("Peek", prio, value, ok, lp, lv, lok)
	}
	return m.check("Peek", prio, value, ok)
}

// match compares a reply with the local queue's answer to the same call.
func match(op string, prio int64, value []byte, ok bool, lp int64, lv []byte, lok bool) error {
	if ok != lok || prio != lp || !bytes.Equal(value, lv) {
		return fmt.Errorf("%s returned %d/%q/%v, local PQ %d/%q/%v", op, prio, value, ok, lp, lv, lok)
	}
	return nil
}

// check holds a Multiset reply to EMPTY-iff-empty and to returning a held
// element.
func (m *Model) check(op string, prio int64, value []byte, ok bool) error {
	if ok != (m.size > 0) {
		return fmt.Errorf("%s ok=%v with %d elements held", op, ok, m.size)
	}
	if ok && m.held[heldKey(prio, value)] == 0 {
		return fmt.Errorf("%s returned %s, which is not held", op, heldKey(prio, value))
	}
	return nil
}
