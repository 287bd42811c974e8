package lincheck

import (
	"math/rand"
	"sync"
	"testing"

	"skipqueue/internal/core"
	"skipqueue/internal/lockfree"
)

func ins(key, stamp int64) Op {
	return Op{Insert: true, Key: key, OK: true, Stamp: stamp, Done: stamp}
}

// insLate models an insert whose timestamp value was drawn early but whose
// write completed late (the Figure 10 line 29 gap).
func insLate(key, stamp, done int64) Op {
	return Op{Insert: true, Key: key, OK: true, Stamp: stamp, Done: done}
}
func del(key, start, stamp int64) Op {
	return Op{Key: key, OK: true, Start: start, Stamp: stamp}
}
func empty(start, stamp int64) Op { return Op{Start: start, Stamp: stamp} }

func TestVerifyAcceptsSequentialHistory(t *testing.T) {
	h := []Op{
		ins(5, 1), ins(3, 2), ins(7, 3),
		del(3, 4, 5), del(5, 6, 7), del(7, 8, 9),
		empty(10, 11),
	}
	if err := Verify(h); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyAcceptsConcurrentInsertSkipped(t *testing.T) {
	// A delete that starts at 4 may legally ignore key 1 inserted at 5
	// (concurrent insert) and return key 9.
	h := []Op{
		ins(9, 1),
		ins(1, 5),    // completes after the delete started
		del(9, 4, 6), // correct under Definition 1
		del(1, 7, 8), // then the late key
	}
	if err := Verify(h); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsWrongMin(t *testing.T) {
	h := []Op{
		ins(5, 1), ins(3, 2),
		del(5, 3, 4), // returns 5 while 3 is eligible
	}
	err := Verify(h)
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("err = %v, want Violation", err)
	}
	if v.Expected != 3 || !v.ExpectedOK {
		t.Fatalf("violation = %+v", v)
	}
}

func TestVerifyRejectsBogusEmpty(t *testing.T) {
	h := []Op{
		ins(5, 1),
		empty(2, 3), // EMPTY while 5 is eligible
	}
	if err := Verify(h); err == nil {
		t.Fatal("bogus EMPTY accepted")
	}
}

func TestVerifyRejectsPhantomElement(t *testing.T) {
	h := []Op{
		empty(1, 2),
		del(5, 3, 4), // returns an element never inserted: I-D empty
	}
	if err := Verify(h); err == nil {
		t.Fatal("phantom delete accepted")
	}
}

func TestVerifyRejectsDoubleDelivery(t *testing.T) {
	h := []Op{
		ins(5, 1),
		del(5, 2, 3),
		del(5, 4, 5),
	}
	if err := Verify(h); err == nil {
		t.Fatal("double delivery accepted")
	}
}

func TestVerifyRejectsStaleSmallerKeyLeftBehind(t *testing.T) {
	// Two eligible keys; the delete takes the larger one and a later delete
	// confirms the smaller one still exists: first delete was wrong.
	h := []Op{
		ins(10, 1), ins(20, 2),
		del(20, 3, 4),
		del(10, 5, 6),
	}
	err := Verify(h)
	if err == nil {
		t.Fatal("out-of-order delivery accepted")
	}
}

func TestVerifyReinsertionAfterDelete(t *testing.T) {
	h := []Op{
		ins(5, 1),
		del(5, 2, 3),
		ins(5, 4), // same key reinserted after deletion
		del(5, 5, 6),
	}
	if err := Verify(h); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyLateWriteMayBeMissed(t *testing.T) {
	// The insert's stamp value was drawn at 2 but its write completed at 9:
	// a delete starting at 5 may legally return EMPTY (the element was not
	// yet visible), and may also legally return it.
	missed := []Op{
		insLate(7, 2, 9),
		empty(5, 6),
		del(7, 10, 11),
	}
	if err := Verify(missed); err != nil {
		t.Fatalf("legal miss rejected: %v", err)
	}
	taken := []Op{
		insLate(7, 2, 9),
		del(7, 5, 6), // the write landed in time after all
	}
	if err := Verify(taken); err != nil {
		t.Fatalf("legal take rejected: %v", err)
	}
}

func TestVerifyRejectsReturnFailingOwnStampTest(t *testing.T) {
	// A strict delete can never return an element whose stamp value is not
	// below its start.
	h := []Op{
		insLate(7, 8, 9), // stamp value 8
		del(7, 5, 10),    // start 5 < stamp value 8: scan must have skipped it
	}
	if err := Verify(h); err == nil {
		t.Fatal("impossible return accepted")
	}
}

func TestVerifyRejectsDuplicateLiveInsert(t *testing.T) {
	h := []Op{ins(5, 1), ins(5, 2)}
	if err := Verify(h); err == nil {
		t.Fatal("duplicate live insert accepted")
	}
}

func TestVerifyConservation(t *testing.T) {
	h := []Op{ins(1, 1), ins(2, 2), del(1, 3, 4)}
	if err := VerifyConservation(h, []int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := VerifyConservation(h, []int64{}); err == nil {
		t.Fatal("missing leftover accepted")
	}
	if err := VerifyConservation(h, []int64{2, 9}); err == nil {
		t.Fatal("phantom leftover accepted")
	}
	bad := []Op{del(7, 1, 2)}
	if err := VerifyConservation(bad, nil); err == nil {
		t.Fatal("delete of never-inserted key accepted")
	}
}

// TestQueueSatisfiesDefinition1 is the headline test: record a heavily
// concurrent run of the real queue and verify it against the paper's
// specification, exactly.
func TestQueueSatisfiesDefinition1(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		q := core.New[int64, int64](core.Config{Seed: uint64(round + 1)})
		var mu sync.Mutex
		var history []Op
		q.SetTracer(func(ev core.TraceEvent[int64]) {
			mu.Lock()
			history = append(history, Op{
				Insert: ev.Insert, Key: ev.Key, OK: ev.OK,
				Stamp: ev.Stamp, Done: ev.Done, Start: ev.Start,
			})
			mu.Unlock()
		})

		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + w)))
				for i := 0; i < 1500; i++ {
					if rng.Intn(2) == 0 {
						q.Insert(int64(w)*1_000_000+int64(i), int64(i))
					} else {
						q.DeleteMin()
					}
				}
			}(w)
		}
		wg.Wait()

		if err := Verify(history); err != nil {
			t.Fatalf("round %d: Definition 1 violated: %v", round, err)
		}
		if err := VerifyConservation(history, q.CollectKeys(nil)); err != nil {
			t.Fatalf("round %d: conservation violated: %v", round, err)
		}
	}
}

// TestLoadedQueueSatisfiesDefinition1: a queue filled by the one-pass
// Load and then churned by concurrent Inserts and DeleteMins is as
// linearizable as one built by Inserts. The loaded keys are distinct and
// negative, below every key the workers insert, so the first DeleteMins
// must drain them in order.
func TestLoadedQueueSatisfiesDefinition1(t *testing.T) {
	rounds := 10
	if testing.Short() {
		rounds = 3
	}
	for round := 0; round < rounds; round++ {
		q := core.New[int64, int64](core.Config{Seed: uint64(round + 1)})
		var mu sync.Mutex
		var history []Op
		q.SetTracer(func(ev core.TraceEvent[int64]) {
			mu.Lock()
			history = append(history, Op{
				Insert: ev.Insert, Key: ev.Key, OK: ev.OK,
				Stamp: ev.Stamp, Done: ev.Done, Start: ev.Start,
			})
			mu.Unlock()
		})
		const loaded = 3000
		q.Load(loaded, func(i int) (int64, uint64, int64) { return int64(3*i - 3*loaded), 0, int64(i) })

		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + w)))
				for i := 0; i < 1500; i++ {
					if rng.Intn(2) == 0 {
						q.Insert(int64(w)*1_000_000+int64(i), int64(i))
					} else {
						q.DeleteMin()
					}
				}
			}(w)
		}
		wg.Wait()

		if err := Verify(history); err != nil {
			t.Fatalf("round %d: Definition 1 violated: %v", round, err)
		}
		if err := VerifyConservation(history, q.CollectKeys(nil)); err != nil {
			t.Fatalf("round %d: conservation violated: %v", round, err)
		}
	}
}

// TestCheckerCatchesBrokenQueue mutates a recorded correct history in ways a
// buggy queue would produce, ensuring the checker is sensitive (a checker
// that accepts everything proves nothing).
func TestCheckerCatchesBrokenQueue(t *testing.T) {
	q := core.New[int64, int64](core.Config{Seed: 42})
	var mu sync.Mutex
	var history []Op
	q.SetTracer(func(ev core.TraceEvent[int64]) {
		mu.Lock()
		history = append(history, Op{
			Insert: ev.Insert, Key: ev.Key, OK: ev.OK,
			Stamp: ev.Stamp, Done: ev.Done, Start: ev.Start,
		})
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				if rng.Intn(2) == 0 {
					q.Insert(int64(w)*10_000+int64(i), 0)
				} else {
					q.DeleteMin()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := Verify(history); err != nil {
		t.Fatalf("baseline history invalid: %v", err)
	}

	// Mutation 1: swap the returned keys of two successful deletes.
	mut := append([]Op(nil), history...)
	var delIdx []int
	for i, op := range mut {
		if !op.Insert && op.OK {
			delIdx = append(delIdx, i)
		}
	}
	if len(delIdx) >= 2 {
		a, b := delIdx[0], delIdx[len(delIdx)/2]
		if mut[a].Key != mut[b].Key {
			mut[a].Key, mut[b].Key = mut[b].Key, mut[a].Key
			if err := Verify(mut); err == nil {
				t.Fatal("checker missed swapped delete results")
			}
		}
	}

	// Mutation 2: duplicate one delete's result into an EMPTY delete.
	mut = append([]Op(nil), history...)
	emptyIdx, okIdx := -1, -1
	for i, op := range mut {
		if !op.Insert && !op.OK && emptyIdx < 0 {
			emptyIdx = i
		}
		if !op.Insert && op.OK && okIdx < 0 {
			okIdx = i
		}
	}
	if emptyIdx >= 0 && okIdx >= 0 {
		mut[emptyIdx].OK = true
		mut[emptyIdx].Key = mut[okIdx].Key
		if err := Verify(mut); err == nil {
			t.Fatal("checker missed duplicated delivery")
		}
	}
}

// TestLockFreeQueueSatisfiesDefinition1 runs the same exact verification
// against the lock-free implementation.
func TestLockFreeQueueSatisfiesDefinition1(t *testing.T) {
	rounds := 25
	if testing.Short() {
		rounds = 5
	}
	for round := 0; round < rounds; round++ {
		q := lockfree.New[int64, int64](lockfree.Config{Seed: uint64(round + 1)})
		var mu sync.Mutex
		var history []Op
		q.SetTracer(func(ev lockfree.TraceEvent[int64]) {
			mu.Lock()
			history = append(history, Op{
				Insert: ev.Insert, Key: ev.Key, OK: ev.OK,
				Stamp: ev.Stamp, Done: ev.Done, Start: ev.Start,
			})
			mu.Unlock()
		})

		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + w)))
				for i := 0; i < 1500; i++ {
					if rng.Intn(2) == 0 {
						q.Insert(int64(w)*1_000_000+int64(i), int64(i))
					} else {
						q.DeleteMin()
					}
				}
			}(w)
		}
		wg.Wait()

		if err := Verify(history); err != nil {
			t.Fatalf("round %d: Definition 1 violated by lock-free queue: %v", round, err)
		}
		if err := VerifyConservation(history, q.CollectKeys(nil)); err != nil {
			t.Fatalf("round %d: conservation violated: %v", round, err)
		}
	}
}
