package skipqueue

import (
	"math/rand"
	"sync"
	"testing"
)

func TestQueueBasics(t *testing.T) {
	q := New[int, string]()
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("empty DeleteMin returned ok")
	}
	if !q.Insert(3, "three") {
		t.Fatal("fresh Insert reported update")
	}
	if q.Insert(3, "THREE") {
		t.Fatal("duplicate Insert reported fresh")
	}
	q.Insert(1, "one")
	q.Insert(2, "two")
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	k, v, ok := q.PeekMin()
	if !ok || k != 1 || v != "one" {
		t.Fatalf("PeekMin = %v %v %v", k, v, ok)
	}
	want := []string{"one", "two", "THREE"}
	for i := 0; i < 3; i++ {
		_, v, ok := q.DeleteMin()
		if !ok || v != want[i] {
			t.Fatalf("DeleteMin #%d = %q", i, v)
		}
	}
}

func TestQueueOptions(t *testing.T) {
	q := New[int64, int64](WithRelaxed(), WithMaxLevel(8), WithP(0.25), WithSeed(5))
	if !q.Relaxed() {
		t.Fatal("WithRelaxed not applied")
	}
	for i := int64(0); i < 100; i++ {
		q.Insert(i, i)
	}
	for i := int64(0); i < 100; i++ {
		k, _, ok := q.DeleteMin()
		if !ok || k != i {
			t.Fatalf("DeleteMin = %d, want %d", k, i)
		}
	}
}

func TestQueueKeys(t *testing.T) {
	q := New[int, int](WithSeed(1))
	for _, k := range []int{5, 1, 3} {
		q.Insert(k, k)
	}
	keys := q.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 5 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestQueueStats(t *testing.T) {
	q := New[int, int]()
	q.Insert(1, 1)
	q.DeleteMin()
	st := q.Stats()
	if st.Inserts != 1 || st.DeleteMins != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPQDuplicatePrioritiesFIFO(t *testing.T) {
	pq := NewPQ[string]()
	pq.Push(5, "a")
	pq.Push(5, "b")
	pq.Push(1, "first")
	pq.Push(5, "c")
	if pq.Len() != 4 {
		t.Fatalf("Len = %d", pq.Len())
	}
	p, v, ok := pq.Peek()
	if !ok || p != 1 || v != "first" {
		t.Fatalf("Peek = %d %q %v", p, v, ok)
	}
	var got []string
	for {
		p, v, ok := pq.Pop()
		if !ok {
			break
		}
		if len(got) > 0 && p < 1 {
			t.Fatalf("priority went backwards: %d", p)
		}
		got = append(got, v)
	}
	want := []string{"first", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain = %v, want %v", got, want)
		}
	}
}

func TestPQNegativePriorities(t *testing.T) {
	pq := NewPQ[int]()
	pq.Push(10, 10)
	pq.Push(-5, -5)
	pq.Push(0, 0)
	order := []int64{-5, 0, 10}
	for _, want := range order {
		p, v, ok := pq.Pop()
		if !ok || p != want || int64(v) != want {
			t.Fatalf("Pop = %d %d %v, want %d", p, v, ok, want)
		}
	}
}

func TestPQConcurrent(t *testing.T) {
	pq := NewPQ[int](WithSeed(3))
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				if rng.Intn(2) == 0 {
					pq.Push(int64(rng.Intn(100)), w*per+i)
				} else {
					pq.Pop()
				}
			}
		}(w)
	}
	wg.Wait()
	st := pq.Stats()
	if int(st.Inserts) != pq.Len()+int(st.DeleteMins) {
		t.Fatalf("conservation: %d pushed, %d popped, %d left",
			st.Inserts, st.DeleteMins, pq.Len())
	}
}

func TestHeapWrapper(t *testing.T) {
	h := NewHeap[int, string](3)
	for i := 0; i < h.Cap(); i++ {
		if err := h.Insert(i, "v"); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := h.Insert(99, "x"); err != ErrFull {
		t.Fatalf("Insert on full heap: %v", err)
	}
	k, _, ok := h.DeleteMin()
	if !ok || k != 0 {
		t.Fatalf("DeleteMin = %d %v", k, ok)
	}
	if h.Len() != h.Cap()-1 {
		t.Fatalf("Len = %d", h.Len())
	}
	if st := h.Stats(); st.Fulls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFunnelListWrapper(t *testing.T) {
	f := NewFunnelList[int, string]()
	f.Insert(2, "b")
	f.Insert(1, "a")
	f.Insert(2, "b2") // multiset
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	k, v, ok := f.DeleteMin()
	if !ok || k != 1 || v != "a" {
		t.Fatalf("DeleteMin = %d %q %v", k, v, ok)
	}
	if st := f.Stats(); st.DeleteMins != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCrossImplementationAgreement(t *testing.T) {
	// All three structures drain the same random input in the same order
	// when used sequentially.
	rng := rand.New(rand.NewSource(42))
	keys := make([]int, 500)
	seen := map[int]bool{}
	for i := range keys {
		for {
			k := rng.Intn(1 << 20)
			if !seen[k] {
				seen[k] = true
				keys[i] = k
				break
			}
		}
	}
	q := New[int, int]()
	h := NewHeap[int, int](len(keys))
	f := NewFunnelList[int, int]()
	for _, k := range keys {
		q.Insert(k, k)
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		f.Insert(k, k)
	}
	for i := 0; i < len(keys); i++ {
		qk, _, _ := q.DeleteMin()
		hk, _, _ := h.DeleteMin()
		fk, _, _ := f.DeleteMin()
		if qk != hk || hk != fk {
			t.Fatalf("step %d: queue=%d heap=%d funnel=%d", i, qk, hk, fk)
		}
	}
}
