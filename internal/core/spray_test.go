package core

import (
	"sort"
	"sync"
	"testing"
)

// TestDeleteSprayConservation: interleaved sprays and scans must deliver
// every key exactly once (the claim SWAP arbitrates), and a failed spray
// must not disturb the queue.
func TestDeleteSprayConservation(t *testing.T) {
	q := New[int, int](Config{Relaxed: true, Seed: 3})
	const n = 1000
	for i := 0; i < n; i++ {
		q.Insert(i, i)
	}
	seen := map[int]bool{}
	seed := uint64(1)
	for len(seen) < n {
		k, _, v, ok, _ := q.DeleteSpray(4, 8, 4, seed)
		seed++
		if !ok {
			// Not an EMPTY certificate; the scan must still find work.
			k, v, ok = q.DeleteMin()
			if !ok {
				t.Fatalf("scan found nothing with %d keys outstanding", n-len(seen))
			}
		}
		if v != k {
			t.Fatalf("key %d delivered value %d", k, v)
		}
		if seen[k] {
			t.Fatalf("key %d delivered twice", k)
		}
		seen[k] = true
	}
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("extra key after full drain")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
	if cnt, err := q.checkLevels(); err != nil || cnt != 0 {
		t.Fatalf("after drain: %d nodes linked (err %v)", cnt, err)
	}
}

// TestDeleteSprayEmpty: spraying an empty queue fails without claiming,
// whatever the parameters (including out-of-range ones, which clamp).
func TestDeleteSprayEmpty(t *testing.T) {
	q := New[int, int](Config{Relaxed: true})
	for _, p := range [][3]int{{4, 8, 2}, {0, 0, 0}, {99, 1, 1}} {
		if _, _, _, ok, _ := q.DeleteSpray(p[0], p[1], p[2], 42); ok {
			t.Fatalf("spray %v claimed on an empty queue", p)
		}
	}
}

// TestDeleteSprayNearMinimal: on a large quiescent queue, a spray shaped
// for p deleters lands well inside the O(p·log³p)-style prefix — far from
// a uniform draw over the whole queue, and not pinned to the head either.
func TestDeleteSprayNearMinimal(t *testing.T) {
	q := New[int, int](Config{Relaxed: true, Seed: 9})
	const n = 20000
	for i := 0; i < n; i++ {
		q.Insert(i, i)
	}
	// p=8: height 4, jump log²(8)+1 = 10.
	var ranks []int
	for s := uint64(0); s < 200; s++ {
		k, _, _, ok, _ := q.DeleteSpray(4, 10, 4, s*0x9e3779b97f4a7c15+1)
		if !ok {
			continue
		}
		ranks = append(ranks, k) // key == initial rank on a quiescent queue
	}
	if len(ranks) < 150 {
		t.Fatalf("only %d of 200 sprays claimed on an uncontended queue", len(ranks))
	}
	sort.Ints(ranks)
	// Worst case span is jump·height + hunt ≈ 10·(2^4) positions of walk
	// budget; give a wide margin but stay far below n.
	if max := ranks[len(ranks)-1]; max > 2000 || max < 20 {
		t.Fatalf("spray claimed up to rank %d — not a near-minimal spread on %d keys", max, n)
	}
}

// TestDeleteSprayChurnConcurrent: sprayers racing scanners and inserters
// stay conservative (race detector is the other half of this test).
func TestDeleteSprayChurnConcurrent(t *testing.T) {
	q := New[int, int](Config{Relaxed: true, Seed: 5})
	const workers = 4
	const perWorker = 2000
	var mu sync.Mutex
	delivered := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q.Insert(w*perWorker+i, i)
				var k int
				var ok bool
				if i%2 == 0 {
					k, _, _, ok, _ = q.DeleteSpray(3, 6, 4, uint64(w*perWorker+i))
				} else {
					k, _, ok = q.DeleteMin()
				}
				if ok {
					mu.Lock()
					if delivered[k] {
						t.Errorf("key %d delivered twice", k)
					}
					delivered[k] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for {
		k, _, ok := q.DeleteMin()
		if !ok {
			break
		}
		if delivered[k] {
			t.Fatalf("key %d delivered twice", k)
		}
		delivered[k] = true
	}
	if len(delivered) != workers*perWorker {
		t.Fatalf("delivered %d of %d keys", len(delivered), workers*perWorker)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len %d after the final drain", n)
	}
}

// TestDeleteSprayUnlinksInterior: spray victims sit inside the list, so
// their unlink locks interior predecessors that racing Inserts splice at.
// Afterwards every level must be sorted and consistent, and the bottom
// level must hold exactly the Len unclaimed nodes: a claimed node left
// linked (a claim without its remove) fails the count.
func TestDeleteSprayUnlinksInterior(t *testing.T) {
	q := New[int64, int64](Config{Relaxed: true, Seed: 13, MaxLevel: 16})
	const prefill, perWorker = 4000, 4000
	for k := int64(0); k < prefill; k++ {
		q.Insert(2*k, 2*k) // even keys; the inserters fill odd ones
	}
	var sprayed [2]int
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func(w int) { // sprayer
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, _, ok, _ := q.DeleteSpray(4, 10, 4, uint64(w*perWorker+i+1)); ok {
					sprayed[w]++
				}
			}
		}(w)
		go func(w int) { // inserter: odd keys near the head, where sprays land
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := int64(2*(2*i+w) + 1)
				q.Insert(k, k)
			}
		}(w)
	}
	wg.Wait()
	if sprayed[0]+sprayed[1] == 0 {
		t.Fatal("no spray claimed anything")
	}
	cnt, err := q.checkLevels()
	if err != nil {
		t.Fatal(err)
	}
	if cnt != q.Len() {
		t.Fatalf("%d nodes linked on the bottom level, Len %d", cnt, q.Len())
	}
	for n := q.head.loadNext(0); n != q.tail; n = n.loadNext(0) {
		if n.state.Load() < 0 {
			t.Fatalf("claimed node %d still linked", n.key)
		}
	}
	if want := prefill + 2*perWorker - sprayed[0] - sprayed[1]; q.Len() != want {
		t.Fatalf("Len = %d, want %d", q.Len(), want)
	}
}
