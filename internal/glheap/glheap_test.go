package glheap

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	h := New[int, string]()
	if _, _, ok := h.DeleteMin(); ok {
		t.Fatal("DeleteMin on empty")
	}
	if _, _, ok := h.PeekMin(); ok {
		t.Fatal("PeekMin on empty")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestSortedDrain(t *testing.T) {
	h := New[int, int]()
	rng := rand.New(rand.NewSource(1))
	const n = 3000
	for _, k := range rng.Perm(n) {
		h.Insert(k, k*2)
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants after inserts")
	}
	for i := 0; i < n; i++ {
		k, v, ok := h.DeleteMin()
		if !ok || k != i || v != i*2 {
			t.Fatalf("DeleteMin #%d = %d,%d,%v", i, k, v, ok)
		}
	}
}

func TestDuplicates(t *testing.T) {
	h := New[int, string]()
	h.Insert(1, "a")
	h.Insert(1, "b")
	if h.Len() != 2 {
		t.Fatalf("Len = %d (multiset expected)", h.Len())
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		k, v, ok := h.DeleteMin()
		if !ok || k != 1 {
			t.Fatal("bad dup delete")
		}
		got[v] = true
	}
	if !got["a"] || !got["b"] {
		t.Fatal("lost a duplicate")
	}
}

// TestInsertSeqOrder: equal keys leave in seq order, whatever the order
// they were inserted in.
func TestInsertSeqOrder(t *testing.T) {
	h := New[int64, uint64]()
	rng := rand.New(rand.NewSource(2))
	for _, i := range rng.Perm(300) {
		h.InsertSeq(int64(i%3), uint64(i), uint64(i))
	}
	for want := range [3]int64{} {
		last := -1
		for n := 0; n < 100; n++ {
			k, v, ok := h.DeleteMin()
			if !ok || k != int64(want) || int(v) <= last {
				t.Fatalf("DeleteMin = %d,%d,%v after seq %d, want key %d", k, v, ok, last, want)
			}
			last = int(v)
		}
	}
}

func TestPropertyMatchesSort(t *testing.T) {
	f := func(keys []int16) bool {
		h := New[int64, int64]()
		sorted := make([]int64, len(keys))
		for i, k := range keys {
			h.Insert(int64(k), 0)
			sorted[i] = int64(k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, want := range sorted {
			k, _, ok := h.DeleteMin()
			if !ok || k != want {
				return false
			}
		}
		_, _, ok := h.DeleteMin()
		return !ok && h.CheckInvariants()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentConservation(t *testing.T) {
	h := New[int64, int64]()
	var wg sync.WaitGroup
	var deleted sync.Map
	var ins, dels [8]int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				if rng.Intn(2) == 0 {
					k := int64(w)*100_000 + int64(i)
					h.Insert(k, k)
					ins[w]++
				} else if k, _, ok := h.DeleteMin(); ok {
					if _, dup := deleted.LoadOrStore(k, true); dup {
						t.Errorf("key %d twice", k)
					}
					dels[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	var in, out int64
	for w := range ins {
		in += ins[w]
		out += dels[w]
	}
	if int64(h.Len()) != in-out {
		t.Fatalf("conservation: %d in %d out %d left", in, out, h.Len())
	}
	if !h.CheckInvariants() {
		t.Fatal("invariants after churn")
	}
}

// TestLenNeverNegative: Len is read under the lock, so a sampler racing
// push/pop pairs on a near-empty heap never sees a DeleteMin's decrement
// before its Insert's increment.
func TestLenNeverNegative(t *testing.T) {
	h := New[int64, int64]()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Insert(int64(w), 0)
				h.DeleteMin()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if n := h.Len(); n < 0 {
			t.Fatalf("Len = %d during churn", n)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}
