package skipqueue

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"skipqueue/internal/lockfree"
	"skipqueue/internal/sim"
	"skipqueue/internal/simq"
)

// TestCrossSubstrateAgreement drives one deterministic operation sequence
// through every implementation of the queue — native lock-based, the
// native lock-free skiplist the benchmark ladder times, and the simulated
// versions — and demands identical
// observable behaviour (the sequence of DeleteMin results).
func TestCrossSubstrateAgreement(t *testing.T) {
	type step struct {
		insert bool
		key    int64
	}
	rng := rand.New(rand.NewSource(99))
	var steps []step
	used := map[int64]bool{}
	for i := 0; i < 2000; i++ {
		if rng.Intn(2) == 0 {
			k := rng.Int63() % (1 << 30)
			if used[k] {
				continue
			}
			used[k] = true
			steps = append(steps, step{insert: true, key: k})
		} else {
			steps = append(steps, step{insert: false})
		}
	}

	runNative := func(insert func(int64), deleteMin func() (int64, bool)) []int64 {
		var out []int64
		for _, s := range steps {
			if s.insert {
				insert(s.key)
			} else if k, ok := deleteMin(); ok {
				out = append(out, k)
			} else {
				out = append(out, -1)
			}
		}
		return out
	}

	lb := New[int64, int64](WithSeed(1))
	gotLB := runNative(func(k int64) { lb.Insert(k, k) },
		func() (int64, bool) { k, _, ok := lb.DeleteMin(); return k, ok })

	lf := lockfree.New[int64, int64](lockfree.Config{Seed: 1})
	gotLF := runNative(func(k int64) { lf.Insert(k, k) },
		func() (int64, bool) { k, _, ok := lf.DeleteMin(); return k, ok })

	runSim := func(build func(m *sim.Machine) simq.PQ) []int64 {
		m := sim.New(sim.Defaults(1))
		q := build(m)
		var out []int64
		m.Run(func(p *sim.Proc) {
			for _, s := range steps {
				if s.insert {
					q.Insert(p, s.key)
				} else if k, ok := q.DeleteMin(p); ok {
					out = append(out, k)
				} else {
					out = append(out, -1)
				}
			}
		})
		return out
	}
	gotSimLB := runSim(func(m *sim.Machine) simq.PQ { return simq.NewSkipQueue(m, 16, false, 1) })
	gotSimLF := runSim(func(m *sim.Machine) simq.PQ { return simq.NewLockFreeSkipQueue(m, 16, false, 1) })
	gotSimHeap := runSim(func(m *sim.Machine) simq.PQ { return simq.NewHeap(m, 1<<16) })
	gotSimFunnel := runSim(func(m *sim.Machine) simq.PQ { return simq.NewFunnelList(m, 2, 8, 4) })

	variants := map[string][]int64{
		"native-lockfree": gotLF,
		"sim-lockbased":   gotSimLB,
		"sim-lockfree":    gotSimLF,
		"sim-heap":        gotSimHeap,
		"sim-funnellist":  gotSimFunnel,
	}
	for name, got := range variants {
		if len(got) != len(gotLB) {
			t.Fatalf("%s: %d results vs %d", name, len(got), len(gotLB))
		}
		for i := range got {
			if got[i] != gotLB[i] {
				t.Fatalf("%s diverges at step %d: %d vs %d", name, i, got[i], gotLB[i])
			}
		}
	}
}

// TestAllStructuresConcurrentConservation runs the same concurrent workload
// over every native structure and checks element conservation for each.
func TestAllStructuresConcurrentConservation(t *testing.T) {
	type iface struct {
		name      string
		insert    func(int64)
		deleteMin func() (int64, bool)
		remaining func() int
	}
	lb := New[int64, int64](WithSeed(2))
	lf := lockfree.New[int64, int64](lockfree.Config{Seed: 2})
	hp := NewHeap[int64, int64](1 << 18)
	fl := NewFunnelList[int64, int64]()
	pq := NewPQ[int64](WithSeed(2))

	cases := []iface{
		{"Queue", func(k int64) { lb.Insert(k, k) },
			func() (int64, bool) { k, _, ok := lb.DeleteMin(); return k, ok },
			func() int { return lb.Len() }},
		{"LockFree", func(k int64) { lf.Insert(k, k) },
			func() (int64, bool) { k, _, ok := lf.DeleteMin(); return k, ok },
			func() int { return lf.Len() }},
		{"Heap", func(k int64) { _ = hp.Insert(k, k) },
			func() (int64, bool) { k, _, ok := hp.DeleteMin(); return k, ok },
			func() int { return hp.Len() }},
		{"FunnelList", func(k int64) { fl.Insert(k, k) },
			func() (int64, bool) { k, _, ok := fl.DeleteMin(); return k, ok },
			func() int { return fl.Len() }},
		{"PQ", func(k int64) { pq.Push(k, k) },
			func() (int64, bool) { k, _, ok := pq.Pop(); return k, ok },
			func() int { return pq.Len() }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var wg sync.WaitGroup
			var inserts, deletes [8]int64
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 2000; i++ {
						if rng.Intn(2) == 0 {
							c.insert(int64(w)*1_000_000 + int64(i))
							inserts[w]++
						} else if _, ok := c.deleteMin(); ok {
							deletes[w]++
						}
					}
				}(w)
			}
			wg.Wait()
			var in, out int64
			for w := 0; w < 8; w++ {
				in += inserts[w]
				out += deletes[w]
			}
			if got := int64(c.remaining()); got != in-out {
				t.Fatalf("conservation: %d in, %d out, %d remaining", in, out, got)
			}
		})
	}
}

// TestSortedDrainAgreementAfterConcurrency checks that after identical
// concurrent insert phases, the final drain of each unique-key structure is
// the same sorted key set.
func TestSortedDrainAgreementAfterConcurrency(t *testing.T) {
	const n = 8000
	insertAll := func(insert func(int64)) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += 8 {
					insert(int64(i))
				}
			}(w)
		}
		wg.Wait()
	}
	drain := func(deleteMin func() (int64, bool)) []int64 {
		var out []int64
		for {
			k, ok := deleteMin()
			if !ok {
				return out
			}
			out = append(out, k)
		}
	}

	lb := New[int64, int64](WithSeed(3))
	insertAll(func(k int64) { lb.Insert(k, k) })
	gotLB := drain(func() (int64, bool) { k, _, ok := lb.DeleteMin(); return k, ok })

	lf := lockfree.New[int64, int64](lockfree.Config{Seed: 3})
	insertAll(func(k int64) { lf.Insert(k, k) })
	gotLF := drain(func() (int64, bool) { k, _, ok := lf.DeleteMin(); return k, ok })

	hp := NewHeap[int64, int64](n)
	insertAll(func(k int64) { _ = hp.Insert(k, k) })
	gotHP := drain(func() (int64, bool) { k, _, ok := hp.DeleteMin(); return k, ok })

	for name, got := range map[string][]int64{"lockbased": gotLB, "lockfree": gotLF, "heap": gotHP} {
		if len(got) != n {
			t.Fatalf("%s drained %d, want %d", name, len(got), n)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("%s drain unsorted", name)
		}
		for i, k := range got {
			if k != int64(i) {
				t.Fatalf("%s: drain[%d] = %d", name, i, k)
			}
		}
	}
}

// TestLockFreeConcurrentAgainstLockBased holds the lock-based queue and
// the lock-free skiplist to the same account of one concurrent workload.
func TestLockFreeConcurrentAgainstLockBased(t *testing.T) {
	// Both queues process the same concurrent workload; afterwards their
	// conservation properties and final contents (as multisets of keys)
	// must agree with what went in.
	run := func(insert func(int64), deleteMin func() (int64, bool), remaining func() []int64) {
		var wg sync.WaitGroup
		var deleted sync.Map
		inserted := make([][]int64, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < 2000; i++ {
					if rng.Intn(2) == 0 {
						k := int64(w)*100_000 + int64(i)
						insert(k)
						inserted[w] = append(inserted[w], k)
					} else if k, ok := deleteMin(); ok {
						if _, dup := deleted.LoadOrStore(k, true); dup {
							t.Errorf("key %d deleted twice", k)
						}
					}
				}
			}(w)
		}
		wg.Wait()
		expect := map[int64]bool{}
		for _, ins := range inserted {
			for _, k := range ins {
				expect[k] = true
			}
		}
		deleted.Range(func(k, _ any) bool {
			if !expect[k.(int64)] {
				t.Errorf("deleted unknown key %d", k)
			}
			delete(expect, k.(int64))
			return true
		})
		for _, k := range remaining() {
			if !expect[k] {
				t.Errorf("unexpected remaining key %d", k)
			}
			delete(expect, k)
		}
		if len(expect) != 0 {
			t.Errorf("%d keys lost", len(expect))
		}
	}

	lb := New[int64, int64](WithSeed(5))
	run(func(k int64) { lb.Insert(k, k) },
		func() (int64, bool) { k, _, ok := lb.DeleteMin(); return k, ok },
		lb.Keys)

	lf := lockfree.New[int64, int64](lockfree.Config{Seed: 5})
	run(func(k int64) { lf.Insert(k, k) },
		func() (int64, bool) { k, _, ok := lf.DeleteMin(); return k, ok },
		func() []int64 { return lf.CollectKeys(nil) })
}
