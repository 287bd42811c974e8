package sharded

import (
	"sync"
	"testing"
)

// TestSequentialDrain: pushed elements come back exactly once each; the
// drain is relaxed in order but exact as a multiset, and EMPTY appears
// only once everything is delivered (full-sweep guarantee: a sequential
// Pop can never see EMPTY while elements remain).
func TestSequentialDrain(t *testing.T) {
	p := New[int64](Config{Shards: 4, Seed: 1})
	const n = 1000
	for i := int64(0); i < n; i++ {
		p.Push(i%97, i)
	}
	if got := p.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	seen := map[int64]bool{}
	for i := 0; i < n; i++ {
		prio, v, ok := p.Pop()
		if !ok {
			t.Fatalf("Pop %d returned EMPTY with %d elements left", i, p.Len())
		}
		if seen[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		if prio != v%97 {
			t.Fatalf("value %d delivered with priority %d, want %d", v, prio, v%97)
		}
		seen[v] = true
	}
	if _, _, ok := p.Pop(); ok {
		t.Fatal("Pop on drained queue returned an element")
	}
	if got := p.Len(); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
}

// TestPopIsAShardMinimum: sequentially, every Pop returns an element that
// is the minimum of at least one shard — the choice-of-two contract.
func TestPopIsAShardMinimum(t *testing.T) {
	p := New[int64](Config{Shards: 4, Seed: 42})
	for i := int64(0); i < 400; i++ {
		p.Push(i, i)
	}
	for p.Len() > 0 {
		// Record each shard's minimum before the pop (white-box access).
		mins := map[int64]bool{}
		for _, s := range p.shards {
			if k, _, ok := s.PeekMin(); ok {
				mins[k] = true
			}
		}
		prio, _, ok := p.Pop()
		if !ok {
			t.Fatal("unexpected EMPTY")
		}
		if !mins[prio] {
			t.Fatalf("popped priority %d is not any shard's minimum %v", prio, mins)
		}
	}
}

// TestRoundRobinBalance: the insert spread keeps shard sizes within one
// element of each other.
func TestRoundRobinBalance(t *testing.T) {
	p := New[int64](Config{Shards: 8, Seed: 1})
	for i := int64(0); i < 1000; i++ {
		p.Push(i, i)
	}
	lens := p.ShardLens()
	min, max := lens[0], lens[0]
	for _, l := range lens {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 1 {
		t.Fatalf("shard imbalance: lens = %v", lens)
	}
}

// TestPeek: advisory peek returns the global minimum on a quiescent queue.
func TestPeek(t *testing.T) {
	p := New[string](Config{Shards: 4, Seed: 1})
	if _, _, ok := p.Peek(); ok {
		t.Fatal("Peek on empty returned an element")
	}
	p.Push(30, "c")
	p.Push(10, "a")
	p.Push(20, "b")
	if prio, v, ok := p.Peek(); !ok || prio != 10 || v != "a" {
		t.Fatalf("Peek = %d/%q/%v, want 10/a/true", prio, v, ok)
	}
	if p.Len() != 3 {
		t.Fatalf("Peek consumed an element: Len = %d", p.Len())
	}
}

// TestDefaults: zero config picks at least two shards.
func TestDefaults(t *testing.T) {
	p := New[int](Config{})
	if p.Shards() < 2 {
		t.Fatalf("default Shards = %d, want >= 2", p.Shards())
	}
}

// TestTracerEvents: the tracer sees one event per operation with unique
// stamps and matching identities.
func TestTracerEvents(t *testing.T) {
	p := New[int64](Config{Shards: 2, Seed: 1})
	var events []Event
	p.SetTracer(func(e Event) { events = append(events, e) })
	p.Push(5, 50)
	p.Push(3, 30)
	p.Pop()
	p.Pop()
	p.Pop() // EMPTY
	if len(events) != 5 {
		t.Fatalf("recorded %d events, want 5", len(events))
	}
	stamps := map[int64]bool{}
	for _, e := range events {
		if stamps[e.Stamp] {
			t.Fatalf("duplicate stamp %d", e.Stamp)
		}
		stamps[e.Stamp] = true
	}
	if !events[0].Insert || events[0].Priority != 5 || events[0].Seq == 0 {
		t.Fatalf("event 0 = %+v, want insert of priority 5", events[0])
	}
	last := events[4]
	if last.Insert || last.OK {
		t.Fatalf("event 4 = %+v, want EMPTY pop", last)
	}
	// The two delivered seqs must be exactly the two inserted seqs.
	ins := map[uint64]bool{events[0].Seq: true, events[1].Seq: true}
	for _, e := range events[2:4] {
		if e.Insert || !e.OK || !ins[e.Seq] {
			t.Fatalf("delivery event %+v does not match an insert", e)
		}
		delete(ins, e.Seq)
	}
}

// TestObsProbes: pops are attributed to shards and the merged snapshot
// carries both sharded-layer and core-layer counters.
func TestObsProbes(t *testing.T) {
	p := New[int64](Config{Shards: 4, Seed: 1})
	for i := int64(0); i < 100; i++ {
		p.Push(i, i)
	}
	for i := 0; i < 100; i++ {
		if _, _, ok := p.Pop(); !ok {
			t.Fatal("unexpected EMPTY")
		}
	}
	p.Pop() // EMPTY: exercises the sweep counters
	snap := p.ObsSnapshot()
	if !snap.Enabled {
		t.Fatal("snapshot not enabled")
	}
	var shardPops uint64
	for i := 0; i < 4; i++ {
		shardPops += snap.Counter([]string{"shard.00.pops", "shard.01.pops", "shard.02.pops", "shard.03.pops"}[i])
	}
	if shardPops != 100 {
		t.Fatalf("per-shard pop counters sum to %d, want 100", shardPops)
	}
	if snap.Counter("sweep.fallbacks") == 0 || snap.Counter("pop.empties") != 1 {
		t.Fatalf("sweep counters: fallbacks=%d empties=%d", snap.Counter("sweep.fallbacks"), snap.Counter("pop.empties"))
	}
	// Core counters from the shards must be folded in.
	if got := snap.Counter("scan.steps"); got == 0 {
		t.Fatal("merged snapshot missing core scan.steps")
	}
}

// TestConcurrentChurnConservation is the package-local churn test: mixed
// concurrent Push/Pop, then an exact multiset reconciliation.
func TestConcurrentChurnConservation(t *testing.T) {
	workers := 8
	perWorker := int64(3000)
	if testing.Short() {
		workers, perWorker = 4, 800
	}
	p := New[int64](Config{Shards: 8, Seed: 7})
	var mu sync.Mutex
	popped := map[int64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := map[int64]bool{}
			for i := int64(0); i < perWorker; i++ {
				id := int64(w)*perWorker*10 + i
				p.Push(id%911, id)
				if i%3 == 0 {
					if _, v, ok := p.Pop(); ok {
						if local[v] {
							t.Errorf("value %d delivered twice to one worker", v)
							return
						}
						local[v] = true
					}
				}
			}
			mu.Lock()
			for v := range local {
				if popped[v] {
					mu.Unlock()
					t.Errorf("value %d delivered to two workers", v)
					return
				}
				popped[v] = true
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for {
		_, v, ok := p.Pop()
		if !ok {
			break
		}
		if popped[v] {
			t.Fatalf("value %d delivered twice", v)
		}
		popped[v] = true
	}
	want := workers * int(perWorker)
	if len(popped) != want {
		t.Fatalf("delivered %d distinct values, want %d", len(popped), want)
	}
}
