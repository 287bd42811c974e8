// Package lincheck verifies recorded SkipQueue histories against
// Definition 1 of the Lotan/Shavit paper:
//
//	For every Delete_Min operation in a history H, let I be the set of
//	values inserted by Insert operations preceding it in H. There exists a
//	serialization of all Delete_Min operations such that, for each
//	operation, if D is the set of values deleted by Delete_Mins serialized
//	before it, the value returned is the minimal element of I − D, or
//	EMPTY if I − D = ∅.
//
// The serialization the paper's proof constructs orders successful deletes
// at their winning SWAP and EMPTY deletes at their response. The queue
// (internal/core and internal/lockfree, with a tracer installed) records
// exactly those points: an insert's timestamp value and a post-write
// completion draw (Done), a delete's start stamp (the Figure 11 line 1
// clock read) and its serialization stamp (the claim ticket). Verify
// replays the history along that serialization — no search over
// serializations is needed, because the proof names the witness.
//
// Eligibility needs care. The paper's Figure 10 line 29 draws the timestamp
// and then writes it; the write (the insert's last instruction) can lag
// arbitrarily behind the draw, so "timestamp value < delete start" does not
// by itself mean the insert preceded the delete in real time — that is
// exactly the direction the paper's proof never uses. The checker therefore
// distinguishes:
//
//   - must-see elements: Done < Start. The insert's last write completed
//     before the delete began, so the element is in I and the delete must
//     not return anything larger, and must not return EMPTY.
//   - may-see elements: Stamp < Start <= Done. The insert was concurrent
//     with the delete but would pass its timestamp test if the write landed
//     in time; the delete may legally return it (or skip it).
//
// A successful delete must return a live element whose Stamp < Start and
// whose key does not exceed the smallest live must-see key; an EMPTY delete
// requires that no live must-see element exists.
//
// # Eliminated pairs
//
// The elimination front-end (internal/elim) completes an insert/delete
// pair at an exchanger slot without the element ever entering the queue.
// Such a pair serializes as Insert(k) immediately followed by
// DeleteMin -> k, both at the exchange: the recorded history carries both
// halves with Elim set, the insert stamped one clock draw before its
// delete. Definition 1 holds at that point iff k does not exceed the
// smallest element of I − D — which is exactly the must-see check the
// replay already performs, so an eliminated delete faces the same minimum
// bound and the same EMPTY rules as any other. What it is excused from is
// the Stamp < Start timestamp test: its element was never timestamped by
// the queue at all; the exchange is its serialization. The checker instead
// requires the pair to be well-formed — an Elim delete must consume an
// Elim insert serialized before it, and a non-Elim delete can never
// consume an Elim insert (eliminated elements are invisible to the queue).
//
// Relaxed histories, whose deletes may legally return a near-minimal
// element, are not this package's: internal/quality checks their
// conservation and rank envelopes.
package lincheck

import (
	"fmt"
	"sort"
)

// Op is one recorded operation. Histories mix inserts and deletes; Verify
// orders them internally.
type Op struct {
	// Insert is true for an insert of Key whose timestamp value is Stamp
	// and whose write completed by Done; false for a delete serialized at
	// Stamp that began at Start and returned Key (OK=true) or EMPTY
	// (OK=false).
	Insert bool
	Key    int64
	OK     bool
	Stamp  int64
	Done   int64
	Start  int64
	// Elim marks both halves of an eliminated pair (internal/elim): the
	// insert handed its element to the delete at an exchanger slot, and
	// both serialize at the exchange (see the package comment).
	Elim bool
}

// Violation describes a failed check.
type Violation struct {
	// Index is the position of the offending delete in serialization order.
	Index int
	Op    Op
	// Expected is the key bound Definition 1 imposes (meaningful when
	// ExpectedOK).
	Expected   int64
	ExpectedOK bool
	Reason     string
}

func (v *Violation) Error() string {
	if v.ExpectedOK {
		return fmt.Sprintf("lincheck: delete #%d (start=%d stamp=%d): %s (returned key=%v ok=%v, must-see min %d)",
			v.Index, v.Op.Start, v.Op.Stamp, v.Reason, v.Op.Key, v.Op.OK, v.Expected)
	}
	return fmt.Sprintf("lincheck: delete #%d (start=%d stamp=%d): %s (returned key=%v ok=%v)",
		v.Index, v.Op.Start, v.Op.Stamp, v.Reason, v.Op.Key, v.Op.OK)
}

// live tracks not-yet-deleted inserts ordered by key. Keys are unique at any
// moment (the queues have map semantics; reinsertion after deletion is
// fine).
type live struct {
	keys []int64 // sorted
	meta map[int64]Op
}

func (l *live) add(op Op) error {
	if _, dup := l.meta[op.Key]; dup {
		return fmt.Errorf("lincheck: key %d inserted twice without an intervening delete", op.Key)
	}
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= op.Key })
	l.keys = append(l.keys, 0)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = op.Key
	l.meta[op.Key] = op
	return nil
}

func (l *live) remove(key int64) {
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i < len(l.keys) && l.keys[i] == key {
		l.keys = append(l.keys[:i], l.keys[i+1:]...)
		delete(l.meta, key)
	}
}

// mustSeeMin returns the smallest live key whose insert's write completed
// before start.
func (l *live) mustSeeMin(start int64) (int64, bool) {
	for _, k := range l.keys {
		if l.meta[k].Done < start {
			return k, true
		}
	}
	return 0, false
}

// Verify checks a recorded history. It returns nil when the history
// satisfies Definition 1 under the proof's serialization, and a *Violation
// (or recording-consistency error) otherwise.
func Verify(history []Op) error {
	ops := append([]Op(nil), history...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Stamp < ops[j].Stamp })

	l := &live{meta: map[int64]Op{}}
	deleteIdx := 0
	for _, op := range ops {
		if op.Insert {
			if err := l.add(op); err != nil {
				return err
			}
			continue
		}
		mustMin, mustOK := l.mustSeeMin(op.Start)
		if !op.OK {
			if mustOK {
				return &Violation{Index: deleteIdx, Op: op, Expected: mustMin, ExpectedOK: true,
					Reason: "delete returned EMPTY but a must-see element exists"}
			}
			deleteIdx++
			continue
		}
		got, present := l.meta[op.Key]
		if !present {
			return &Violation{Index: deleteIdx, Op: op,
				Reason: "delete returned a key that is not live (phantom or double delivery)"}
		}
		if got.Elim != op.Elim {
			if op.Elim {
				return &Violation{Index: deleteIdx, Op: op,
					Reason: "eliminated delete consumed an element that was inserted into the queue"}
			}
			return &Violation{Index: deleteIdx, Op: op,
				Reason: "queue delete returned an eliminated element (never entered the queue)"}
		}
		if op.Elim {
			// The pair serializes at the exchange: the insert's stamp must
			// have been drawn before the delete's. The Stamp < Start test
			// does not apply — the element was never timestamped by the
			// queue — but the must-see minimum bound below still does.
			if got.Stamp >= op.Stamp {
				return &Violation{Index: deleteIdx, Op: op,
					Reason: "eliminated pair's insert not serialized before its delete"}
			}
		} else if got.Stamp >= op.Start {
			return &Violation{Index: deleteIdx, Op: op,
				Reason: "delete returned an element its own timestamp test must have rejected"}
		}
		if mustOK && op.Key > mustMin {
			return &Violation{Index: deleteIdx, Op: op, Expected: mustMin, ExpectedOK: true,
				Reason: "delete did not return the minimum of I-D"}
		}
		l.remove(op.Key)
		deleteIdx++
	}
	return nil
}

// VerifyConservation performs the weaker, serialization-free sanity checks
// that apply to any priority-queue history (including relaxed mode): every
// deleted key was inserted, no key is delivered twice, and the leftover set
// matches inserts minus deletes. remaining is the key set collected from the
// quiescent queue after the run.
func VerifyConservation(history []Op, remaining []int64) error {
	inserted := map[int64]int{}
	deleted := map[int64]int{}
	for _, op := range history {
		if op.Insert {
			inserted[op.Key]++
		} else if op.OK {
			deleted[op.Key]++
		}
	}
	for k, n := range deleted {
		if n > inserted[k] {
			return fmt.Errorf("lincheck: key %d deleted %d times but inserted %d", k, n, inserted[k])
		}
	}
	leftover := map[int64]int{}
	for k, n := range inserted {
		if r := n - deleted[k]; r > 0 {
			leftover[k] = r
		}
	}
	seen := map[int64]int{}
	for _, k := range remaining {
		seen[k]++
	}
	for k, n := range leftover {
		if seen[k] != n {
			return fmt.Errorf("lincheck: key %d should remain x%d, found x%d", k, n, seen[k])
		}
	}
	for k := range seen {
		if leftover[k] == 0 {
			return fmt.Errorf("lincheck: key %d remains but was never inserted (or already deleted)", k)
		}
	}
	return nil
}
