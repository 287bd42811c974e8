package lockfree

import (
	"math"
	"testing"
)

type pos struct {
	key int64
	seq uint64
}

// TestCompositeOrder pins the (key, seq) order InsertSeq builds: equal keys
// with different seqs coexist and drain in seq order, an equal (key, seq)
// keeps the existing value and reports false, and the whole int64 key range
// orders natively. It is internal/core's table of the same name; only the
// equal-position case differs, because this queue keeps the existing value
// where core replaces it.
func TestCompositeOrder(t *testing.T) {
	type ins struct {
		key  int64
		seq  uint64
		want bool
	}
	cases := []struct {
		name  string
		ins   []ins
		drain []pos // expected DeleteMin order
	}{
		{
			name:  "equal key drains in seq order",
			ins:   []ins{{5, 3, true}, {5, 1, true}, {5, 2, true}},
			drain: []pos{{5, 1}, {5, 2}, {5, 3}},
		},
		{
			name:  "equal position keeps the existing value",
			ins:   []ins{{5, 1, true}, {5, 2, true}, {5, 1, false}},
			drain: []pos{{5, 1}, {5, 2}},
		},
		{
			name:  "key orders before seq",
			ins:   []ins{{2, 1, true}, {1, 9, true}, {1, math.MaxUint64, true}, {2, 0, true}},
			drain: []pos{{1, 9}, {1, math.MaxUint64}, {2, 0}, {2, 1}},
		},
		{
			name: "full int64 range",
			ins: []ins{
				{math.MaxInt64, 1, true}, {0, 2, true}, {math.MinInt64, 3, true},
				{-1, 4, true}, {1, 5, true}, {math.MinInt64, 6, true}, {math.MaxInt64, 7, true},
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
			// Every insert carries its own index as the value, so the value
			// a drain returns names the position it came from.
			held := map[pos]int{}
			for i, in := range tc.ins {
				if got := q.InsertSeq(in.key, in.seq, i); got != in.want {
					t.Fatalf("InsertSeq(%d, %d) = %v, want %v", in.key, in.seq, got, in.want)
				}
				if in.want {
					held[pos{in.key, in.seq}] = i
				}
			}
			if n, ok := q.CheckInvariants(); !ok || n != len(tc.drain) {
				t.Fatalf("CheckInvariants = %d, %v, want %d nodes", n, ok, len(tc.drain))
			}
			if k, v, ok := q.PeekMin(); !ok || k != tc.drain[0].key || v != held[tc.drain[0]] {
				t.Fatalf("PeekMin = (%d, %d, %v), want %v", k, v, ok, tc.drain[0])
			}
			for _, want := range tc.drain {
				k, v, ok := q.DeleteMin()
				if !ok || k != want.key || v != held[want] {
					t.Fatalf("DeleteMin = (%d, %d, %v), want %v holding %d", k, v, ok, want, held[want])
				}
			}
			if _, _, ok := q.DeleteMin(); ok {
				t.Fatal("queue not empty after the expected drain")
			}
			if n, ok := q.CheckInvariants(); !ok || n != 0 {
				t.Fatalf("CheckInvariants after drain = %d, %v", n, ok)
			}
		})
	}
}
