package skipqueue

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBoundedWrapper(t *testing.T) {
	b := NewBounded[string](16)
	if b.Range() != 16 {
		t.Fatalf("Range = %d", b.Range())
	}
	b.Insert(9, "nine")
	b.Insert(2, "two")
	b.Insert(9, "nine2")
	if p, ok := b.PeekMin(); !ok || p != 2 {
		t.Fatalf("PeekMin = %d,%v", p, ok)
	}
	p, v, ok := b.DeleteMin()
	if !ok || p != 2 || v != "two" {
		t.Fatalf("DeleteMin = %d,%q,%v", p, v, ok)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if st := b.Stats(); st.Inserts != 3 || st.DeleteMins != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBoundedConcurrent(t *testing.T) {
	b := NewBounded[int](8)
	var wg sync.WaitGroup
	var popped sync.Map
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				if rng.Intn(2) == 0 {
					b.Insert(rng.Intn(8), w*2000+i)
				} else if _, v, ok := b.DeleteMin(); ok {
					if _, dup := popped.LoadOrStore(v, true); dup {
						t.Errorf("value %d popped twice", v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := b.Stats()
	if int(st.Inserts)-int(st.DeleteMins) != b.Len() {
		t.Fatalf("conservation: %+v Len=%d", st, b.Len())
	}
}

func TestGlobalLockHeapWrapper(t *testing.T) {
	g := NewGlobalLockHeap[int, string]()
	g.Insert(2, "b")
	g.Insert(1, "a")
	g.Insert(1, "a2") // multiset
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	if k, _, ok := g.PeekMin(); !ok || k != 1 {
		t.Fatalf("PeekMin = %d,%v", k, ok)
	}
	k, v, ok := g.DeleteMin()
	if !ok || k != 1 || (v != "a" && v != "a2") {
		t.Fatalf("DeleteMin = %d,%q,%v", k, v, ok)
	}
}
