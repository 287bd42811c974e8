package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestUpdatePeekValueContract: map-style Inserts (seq 0) update a few keys
// in place while DeleteMin and PeekMin run, so updates, pops and peeks meet
// on the same nodes. Every value popped or peeked must be one inserted for
// its key, every Insert must count as inserted or updated, and each node an
// Insert linked must drain exactly once. Run it under -race: the value is
// guarded by lock(node, 0) alone, so an update or a read outside that lock
// is a data race.
func TestUpdatePeekValueContract(t *testing.T) {
	for _, relaxed := range []bool{false, true} {
		name := "strict"
		if relaxed {
			name = "relaxed"
		}
		t.Run(name, func(t *testing.T) { checkValueContract(t, relaxed) })
	}

	// A claimed node that is still linked refuses the update: the Insert
	// waits until remove unlinks it, then links a fresh node, and the
	// deleter's value is the one the node held at the claim.
	t.Run("claimed", func(t *testing.T) {
		q := New[int64, int64](Config{})
		q.Insert(1, 10)
		n := q.head.loadNext(0)
		if s := n.state.Load(); !n.state.CompareAndSwap(s, -1<<levelBits|s&levelMask) {
			t.Fatal("claim failed")
		}
		res := make(chan InsertResult, 1)
		go func() { res <- q.Insert(1, 11) }()
		select {
		case r := <-res:
			t.Fatalf("Insert on a claimed node returned %v before remove", r)
		case <-time.After(20 * time.Millisecond):
		}
		if v := q.remove(q.shard(), n); v != 10 {
			t.Fatalf("remove returned %d, want 10", v)
		}
		if r := <-res; r != Inserted {
			t.Fatalf("Insert after remove = %v, want Inserted", r)
		}
		if k, v, ok := q.DeleteMin(); !ok || k != 1 || v != 11 {
			t.Fatalf("DeleteMin = (%d, %d, %v), want (1, 11, true)", k, v, ok)
		}
	})
}

func checkValueContract(t *testing.T, relaxed bool) {
	type val struct{ key, id int64 }
	const keys, writers, perWriter = 4, 2, 1500
	q := New[int64, val](Config{Seed: 9, Relaxed: relaxed})
	var (
		issued   atomic.Int64 // ids handed out, from 1
		inserted [keys]atomic.Int64
		popped   [keys]atomic.Int64
		updated  atomic.Int64
	)
	check := func(what string, k int64, v val) {
		if k < 0 || k >= keys || v.key != k || v.id < 1 || v.id > issued.Load() {
			t.Errorf("%s key %d returned %+v, a value never inserted for it", what, k, v)
		}
	}

	var writersWG, readersWG sync.WaitGroup
	done := make(chan struct{})
	for w := range writers {
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := range perWriter {
				k := int64((i + w) % keys)
				switch q.Insert(k, val{k, issued.Add(1)}) {
				case Inserted:
					inserted[k].Add(1)
				case Updated:
					updated.Add(1)
				}
			}
		}()
	}
	readersWG.Add(2)
	go func() { // popper
		defer readersWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if k, v, ok := q.DeleteMin(); ok {
				check("DeleteMin", k, v)
				popped[k].Add(1)
			}
		}
	}()
	go func() { // peeker
		defer readersWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if k, v, ok := q.PeekMin(); ok {
				check("PeekMin", k, v)
			}
		}
	}()
	writersWG.Wait()
	close(done)
	readersWG.Wait()

	var left [keys]int
	for {
		k, v, ok := q.DeleteMin()
		if !ok {
			break
		}
		check("drain DeleteMin", k, v)
		popped[k].Add(1)
		if left[k]++; left[k] > 1 {
			t.Errorf("key %d linked twice at quiescence", k)
		}
	}

	var ins uint64
	for k := range keys {
		n, p := inserted[k].Load(), popped[k].Load()
		if n != p {
			t.Errorf("key %d: %d nodes inserted, %d popped", k, n, p)
		}
		ins += uint64(n)
	}
	if calls := uint64(writers * perWriter); ins+uint64(updated.Load()) != calls {
		t.Errorf("Inserted %d + Updated %d results, want %d calls", ins, updated.Load(), calls)
	}
	if st := q.Stats(); st.Inserts != ins || st.Updates != uint64(updated.Load()) {
		t.Errorf("Stats Inserts %d Updates %d, want %d and %d", st.Inserts, st.Updates, ins, updated.Load())
	}
	if updated.Load() == 0 {
		t.Error("no Insert updated in place; the run never met the contract")
	}
	if q.Len() != 0 {
		t.Errorf("Len = %d after the drain", q.Len())
	}
}

// TestTowerHeightSurvivesState: the tower height rides in the low byte of
// state, so every write of state must keep it. level() returns the drawn
// height while the tower links, after stamping, after an untraced claim,
// after a traced claim (whose ticket fills the rest of the word), after a
// spray claim, and on both sentinels.
func TestTowerHeightSurvivesState(t *testing.T) {
	const n = 64
	// The heights the Seed draws, in insert order (see TestTowerHeightsGolden).
	draw := New[int64, int64](Config{Seed: 3, MaxLevel: 8})
	want := make([]int, n)
	for i := range want {
		want[i] = draw.randomLevel()
	}
	if nn := newNode[int64, int64](0, 0, 0, 5); nn.level() != 5 || nn.state.Load()>>levelBits != linking {
		t.Fatalf("while linking: level %d, x %d, want 5 and linking", nn.level(), nn.state.Load()>>levelBits)
	}

	for _, mode := range []string{"untraced", "traced", "spray"} {
		t.Run(mode, func(t *testing.T) {
			q := New[int64, int64](Config{Seed: 3, MaxLevel: 8, Relaxed: mode == "spray"})
			var tickets []int64
			if mode == "traced" {
				q.SetTracer(func(ev TraceEvent[int64]) {
					if !ev.Insert && ev.OK {
						tickets = append(tickets, ev.Stamp)
					}
				})
			}
			for i := range n {
				q.Insert(int64(i), int64(i))
			}
			var nodes []*node[int64, int64]
			for nd := q.head.loadNext(0); nd != q.tail; nd = nd.loadNext(0) {
				nodes = append(nodes, nd)
			}
			for i, nd := range nodes {
				if nd.level() != want[i] {
					t.Fatalf("stamped node %d: level %d, want %d", i, nd.level(), want[i])
				}
			}
			for i := range n {
				var ok bool
				if mode == "spray" {
					_, _, _, ok, _ = q.DeleteSpray(1, 1, n, uint64(i))
				} else {
					_, _, ok = q.DeleteMin()
				}
				if !ok {
					t.Fatalf("pop %d found nothing", i)
				}
			}
			for i, nd := range nodes {
				s := nd.state.Load()
				if nd.level() != want[i] || s >= 0 {
					t.Errorf("claimed node %d: level %d (state %#x), want %d and claimed", i, nd.level(), s, want[i])
				}
				if mode == "traced" && s>>levelBits != -tickets[i] {
					t.Errorf("claimed node %d: x %d, want the negated ticket %d", i, s>>levelBits, -tickets[i])
				}
			}
			for _, sentinel := range []*node[int64, int64]{q.head, q.tail} {
				if sentinel.level() != 8 || sentinel.state.Load() >= 0 {
					t.Errorf("sentinel: level %d (state %#x), want 8 and claimed", sentinel.level(), sentinel.state.Load())
				}
			}
		})
	}
}
