package core

import (
	"math"
	"sync"
	"testing"
)

// TestCompositeOrder pins the (key, seq) order InsertSeq builds: equal keys
// with different seqs coexist and drain in seq order, an equal (key, seq)
// updates in place, and the whole int64 key range orders natively.
func TestCompositeOrder(t *testing.T) {
	type ins struct {
		key  int64
		seq  uint64
		want InsertResult
	}
	cases := []struct {
		name  string
		ins   []ins
		drain []pos // expected DeleteMinSeq order
	}{
		{
			name:  "equal key drains in seq order",
			ins:   []ins{{5, 3, Inserted}, {5, 1, Inserted}, {5, 2, Inserted}},
			drain: []pos{{5, 1}, {5, 2}, {5, 3}},
		},
		{
			name:  "equal position updates in place",
			ins:   []ins{{5, 1, Inserted}, {5, 2, Inserted}, {5, 1, Updated}},
			drain: []pos{{5, 1}, {5, 2}},
		},
		{
			name:  "key orders before seq",
			ins:   []ins{{2, 1, Inserted}, {1, 9, Inserted}, {1, math.MaxUint64, Inserted}, {2, 0, Inserted}},
			drain: []pos{{1, 9}, {1, math.MaxUint64}, {2, 0}, {2, 1}},
		},
		{
			name: "full int64 range",
			ins: []ins{
				{math.MaxInt64, 1, Inserted}, {0, 2, Inserted}, {math.MinInt64, 3, Inserted},
				{-1, 4, Inserted}, {1, 5, Inserted}, {math.MinInt64, 6, Inserted}, {math.MaxInt64, 7, Inserted},
			},
			drain: []pos{
				{math.MinInt64, 3}, {math.MinInt64, 6}, {-1, 4}, {0, 2}, {1, 5},
				{math.MaxInt64, 1}, {math.MaxInt64, 7},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := New[int64, int](Config{Seed: 1})
			last := map[pos]int{}
			for i, in := range tc.ins {
				if got := q.InsertSeq(in.key, in.seq, i); got != in.want {
					t.Fatalf("InsertSeq(%d, %d) = %v, want %v", in.key, in.seq, got, in.want)
				}
				last[pos{in.key, in.seq}] = i
			}
			if n, err := q.checkLevels(); err != nil || n != len(tc.drain) {
				t.Fatalf("checkLevels = %d, %v, want %d nodes", n, err, len(tc.drain))
			}
			if k, seq, _, ok := q.PeekMinSeq(); !ok || (pos{k, seq}) != tc.drain[0] {
				t.Fatalf("PeekMinSeq = (%d, %d, %v), want %v", k, seq, ok, tc.drain[0])
			}
			for _, want := range tc.drain {
				k, seq, v, ok := q.DeleteMinSeq()
				if got := (pos{k, seq}); !ok || got != want || v != last[want] {
					t.Fatalf("DeleteMinSeq = (%v, %d, %v), want (%v, %d, true)", got, v, ok, want, last[want])
				}
			}
			if _, _, _, ok := q.DeleteMinSeq(); ok {
				t.Fatal("queue not empty after the expected drain")
			}
		})
	}
}

// TestTowerHeightsGolden: the same Seed builds the same towers as before the
// level draw moved from xrand.NewRand to the value-type xrand.Seeded. The
// heights are those of the first 64 inserts into a Seed: 1 queue.
func TestTowerHeightsGolden(t *testing.T) {
	want := []int{
		1, 1, 1, 2, 1, 1, 1, 3, 1, 2, 2, 3, 2, 2, 3, 3,
		1, 1, 1, 1, 2, 2, 1, 1, 2, 4, 1, 2, 1, 1, 1, 1,
		1, 4, 1, 1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 1, 4, 3,
		1, 1, 1, 4, 2, 5, 1, 1, 1, 1, 6, 1, 1, 2, 1, 3,
	}
	q := New[int64, int](Config{Seed: 1})
	for i := range want {
		q.Insert(int64(i), i)
	}
	i := 0
	for n := q.head.loadNext(0); n != q.tail; n = n.loadNext(0) {
		if n.level() != want[i] {
			t.Fatalf("insert #%d built a tower of %d levels, want %d", i, n.level(), want[i])
		}
		i++
	}
}

// TestTowersBeyondInlineClasses covers the tall size classes (towers of
// more than 8 levels) and a MaxLevel past the stack scratch, whose
// predecessor array falls back to the heap.
func TestTowersBeyondInlineClasses(t *testing.T) {
	q := New[int64, int64](Config{MaxLevel: DefaultMaxLevel + 8, P: 0.9, Seed: 5})
	const n = 400
	tall := 0
	for i := int64(0); i < n; i++ {
		q.InsertSeq(i%7, uint64(i), i)
	}
	for nd := q.head.loadNext(0); nd != q.tail; nd = nd.loadNext(0) {
		if nd.level() > 8 {
			tall++
		}
	}
	if tall == 0 {
		t.Fatal("no tower outgrew node8; the tall classes went untested")
	}
	if c, err := q.checkLevels(); err != nil || c != n {
		t.Fatalf("checkLevels = %d, %v, want %d nodes", c, err, n)
	}
	prev := pos{math.MinInt64, 0}
	for i := 0; i < n; i++ {
		k, seq, v, ok := q.DeleteMinSeq()
		if got := (pos{k, seq}); !ok || got.less(prev) || v != int64(seq) {
			t.Fatalf("DeleteMinSeq #%d = (%v, %d, %v) after %v", i, got, v, ok, prev)
		}
		prev = pos{k, seq}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after the drain", q.Len())
	}
}

// TestConcurrentNegativeKeys: the head sentinel carries no key, so a
// traversal that lands on it through a removed node's backward pointer must
// treat it as preceding everything. Compared by its zero key instead, an
// Insert of a negative key racing the DeleteMin of its predecessor links
// behind the unlinked node: the insert is lost and the cycle it leaves hangs
// later traversals (this test then times out).
func TestConcurrentNegativeKeys(t *testing.T) {
	q := New[int64, int64](Config{Seed: 29})
	const workers = 4
	const perWorker = 20000
	var wg sync.WaitGroup
	var popped [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Ascending negative keys: every insert lands a few nodes
				// behind the head, where the deleters work.
				q.InsertSeq(int64(i)-perWorker-1, uint64(w), int64(i))
				if i%2 == 1 {
					if _, _, _, ok := q.DeleteMinSeq(); ok {
						popped[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, n := range popped {
		total += n
	}
	reachable, err := q.checkLevels()
	if err != nil {
		t.Fatal(err)
	}
	if want := workers*perWorker - int(total); reachable != want || q.Len() != want {
		t.Fatalf("%d nodes reachable, Len %d, want %d: inserts were lost", reachable, q.Len(), want)
	}
}
