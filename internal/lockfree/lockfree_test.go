package lockfree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	q := New[int64, int64](Config{})
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty returned ok")
	}
	if _, _, ok := q.PeekMin(); ok {
		t.Fatal("PeekMin on empty returned ok")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
	if st := q.Stats(); st.Empties != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInsertDeleteSingle(t *testing.T) {
	q := New[int64, string](Config{})
	if !q.Insert(5, "five") {
		t.Fatal("fresh insert reported existing")
	}
	if q.Insert(5, "FIVE") {
		t.Fatal("duplicate insert reported fresh")
	}
	k, v, ok := q.DeleteMin()
	if !ok || k != 5 || v != "five" {
		t.Fatalf("DeleteMin = %d,%q,%v", k, v, ok)
	}
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("second DeleteMin returned ok")
	}
}

func TestSortedDrain(t *testing.T) {
	q := New[int64, int64](Config{Seed: 3})
	rng := rand.New(rand.NewSource(5))
	const n = 3000
	for _, k := range rng.Perm(n) {
		q.Insert(int64(k), int64(k)*2)
	}
	if cnt, ok := q.CheckInvariants(); !ok || cnt != n {
		t.Fatalf("invariants cnt=%d ok=%v", cnt, ok)
	}
	for i := int64(0); i < n; i++ {
		k, v, ok := q.DeleteMin()
		if !ok || k != i || v != i*2 {
			t.Fatalf("DeleteMin #%d = (%d,%d,%v)", i, k, v, ok)
		}
	}
}

func TestPeekMin(t *testing.T) {
	q := New[int64, int64](Config{})
	q.Insert(30, 0)
	q.Insert(10, 0)
	q.Insert(20, 0)
	if k, _, ok := q.PeekMin(); !ok || k != 10 {
		t.Fatalf("PeekMin = %d,%v", k, ok)
	}
	q.DeleteMin()
	if k, _, ok := q.PeekMin(); !ok || k != 20 {
		t.Fatalf("PeekMin after delete = %d,%v", k, ok)
	}
}

func TestStringKeys(t *testing.T) {
	q := New[string, int](Config{})
	for i, w := range []string{"pear", "apple", "fig"} {
		q.Insert(w, i)
	}
	var got []string
	for {
		k, _, ok := q.DeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != 3 || !sort.StringsAreSorted(got) {
		t.Fatalf("drain = %v", got)
	}
}

func TestPropertySequentialModel(t *testing.T) {
	f := func(ops []int16) bool {
		q := New[int64, int64](Config{Seed: 9})
		model := map[int64]bool{}
		for _, op := range ops {
			if op >= 0 {
				k := int64(op % 128)
				q.Insert(k, k)
				model[k] = true
			} else {
				k, _, ok := q.DeleteMin()
				if len(model) == 0 {
					if ok {
						return false
					}
					continue
				}
				var min int64 = 1 << 62
				for mk := range model {
					if mk < min {
						min = mk
					}
				}
				if !ok || k != min {
					return false
				}
				delete(model, min)
			}
		}
		keys := q.CollectKeys(nil)
		if len(keys) != len(model) {
			return false
		}
		for _, k := range keys {
			if !model[k] {
				return false
			}
		}
		_, ok := q.CheckInvariants()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInsertThenDrain(t *testing.T) {
	q := New[int64, int64](Config{Seed: 11})
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := int64(i*workers + w)
				q.Insert(k, k)
			}
		}(w)
	}
	wg.Wait()
	if cnt, ok := q.CheckInvariants(); !ok || cnt != workers*per {
		t.Fatalf("invariants: cnt=%d ok=%v", cnt, ok)
	}
	prev := int64(-1)
	for i := 0; i < workers*per; i++ {
		k, _, ok := q.DeleteMin()
		if !ok || k != prev+1 {
			t.Fatalf("DeleteMin #%d = %d (prev %d, ok %v)", i, k, prev, ok)
		}
		prev = k
	}
}

func TestConcurrentMixedConservation(t *testing.T) {
	q := New[int64, int64](Config{Seed: 13})
	const workers = 8
	var wg sync.WaitGroup
	var deleted sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				if rng.Intn(2) == 0 {
					k := int64(w)*1_000_000 + int64(i)
					q.Insert(k, k)
				} else if k, v, ok := q.DeleteMin(); ok {
					if k != v {
						t.Errorf("key %d carried value %d", k, v)
					}
					if _, dup := deleted.LoadOrStore(k, true); dup {
						t.Errorf("key %d deleted twice", k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := q.Stats()
	remaining := len(q.CollectKeys(nil))
	if int(st.Inserts) != int(st.DeleteMins)+remaining {
		t.Fatalf("conservation: %d in, %d out, %d left", st.Inserts, st.DeleteMins, remaining)
	}
	if _, ok := q.CheckInvariants(); !ok {
		t.Fatal("invariants violated")
	}
}

func TestConcurrentDrainNoLossNoDup(t *testing.T) {
	q := New[int64, int64](Config{Seed: 17})
	const n = 10000
	for i := int64(0); i < n; i++ {
		q.Insert(i, i)
	}
	var wg sync.WaitGroup
	results := make([][]int64, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k, _, ok := q.DeleteMin()
				if !ok {
					return
				}
				results[w] = append(results[w], k)
			}
		}(w)
	}
	wg.Wait()
	all := map[int64]bool{}
	for w, res := range results {
		for i := 1; i < len(res); i++ {
			if res[i] <= res[i-1] {
				t.Fatalf("worker %d: non-increasing keys %d then %d", w, res[i-1], res[i])
			}
		}
		for _, k := range res {
			if all[k] {
				t.Fatalf("key %d returned twice", k)
			}
			all[k] = true
		}
	}
	if len(all) != n {
		t.Fatalf("got %d keys, want %d", len(all), n)
	}
}

func TestConcurrentInsertDeleteSameKeys(t *testing.T) {
	// Hammer the claimed-key retry path: all workers insert and delete from
	// a tiny key space.
	q := New[int64, int64](Config{Seed: 19})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				if rng.Intn(2) == 0 {
					q.Insert(int64(rng.Intn(8)), int64(i))
				} else {
					q.DeleteMin()
				}
			}
		}(w)
	}
	wg.Wait()
	if _, ok := q.CheckInvariants(); !ok {
		t.Fatal("invariants violated after same-key churn")
	}
	// Drain and verify sorted, each key at most once (unique-key queue).
	var got []int64
	for {
		k, _, ok := q.DeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("drain not strictly increasing: %v", got)
		}
	}
}

func TestCASRetriesRecorded(t *testing.T) {
	q := New[int64, int64](Config{Seed: 23})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				q.Insert(int64(w*2000+i), 0)
				if i%2 == 0 {
					q.DeleteMin()
				}
			}
		}(w)
	}
	wg.Wait()
	if st := q.Stats(); st.Unlinks == 0 {
		t.Fatalf("no unlinks recorded: %+v", st)
	}
}

// TestLenNeverNegative: a DeleteMin can claim a node and count itself
// before the node's Insert has counted, so a shard's DeleteMins may run
// ahead of every Insert; Len must then report 0, never a negative length.
func TestLenNeverNegative(t *testing.T) {
	q := New[int64, int64](Config{})
	q.stats[3].deleteMins.Add(1)
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d with DeleteMins ahead of Inserts, want 0", n)
	}
	q.stats[5].inserts.Add(3)
	if n := q.Len(); n != 2 {
		t.Fatalf("Len = %d across shards, want 2", n)
	}
}
