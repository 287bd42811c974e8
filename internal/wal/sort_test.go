package wal

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSortItems sorts a copy of in with sortItems and requires it to match
// slices.SortFunc by (Priority, ID) element by element, each Value staying
// with its item. The ids in in must be distinct, as a recovered live set's
// are, so the order is unique.
func checkSortItems(t *testing.T, in []Item) {
	t.Helper()
	want := slices.Clone(in)
	slices.SortFunc(want, cmpPriorityID)
	got := slices.Clone(in)
	sortItems(got)
	for i := range want {
		g, w := got[i], want[i]
		if g.Priority != w.Priority || g.ID != w.ID || string(g.Value) != string(w.Value) {
			t.Fatalf("item %d of %d = (prio %d, id %#x, %q), want (prio %d, id %#x, %q)",
				i, len(in), g.Priority, g.ID, g.Value, w.Priority, w.ID, w.Value)
		}
	}
}

// TestSortItemsMatchesComparator: the radix sort Recover orders the live
// set with agrees with a comparison sort on (Priority, ID) at sizes around
// the insertion-sort cutoff and on key shapes that each exercise one part
// of it: the sign bit, skipped digits, the id digits, and presorted input.
func TestSortItemsMatchesComparator(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(rng *rand.Rand, n int) []Item
	}{
		{"full-range", func(rng *rand.Rand, n int) []Item {
			items := genItems(rng, n, func() int64 { return int64(rng.Uint64()) })
			for i, p := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
				if i < n {
					items[i].Priority = p
				}
			}
			return items
		}},
		{"equal-priority-ids-descending", func(rng *rand.Rand, n int) []Item {
			items := genItems(rng, n, func() int64 { return 7 })
			for i := range items {
				items[i].ID = uint64(n - i)
			}
			return items
		}},
		{"few-priorities-shuffled-ids", func(rng *rand.Rand, n int) []Item {
			return genItems(rng, n, func() int64 { return []int64{-3, 0, 2}[rng.Intn(3)] })
		}},
		{"shared-high-id-bytes", func(rng *rand.Rand, n int) []Item {
			items := genItems(rng, n, func() int64 { return int64(rng.Intn(2)) })
			for i := range items {
				items[i].ID |= 0x0102030405060000
			}
			return items
		}},
		{"sorted", func(rng *rand.Rand, n int) []Item {
			items := genItems(rng, n, func() int64 { return rng.Int63n(1<<20) - 1<<19 })
			slices.SortFunc(items, cmpPriorityID)
			return items
		}},
		{"reverse-sorted", func(rng *rand.Rand, n int) []Item {
			items := genItems(rng, n, func() int64 { return rng.Int63n(1<<20) - 1<<19 })
			slices.SortFunc(items, cmpPriorityID)
			slices.Reverse(items)
			return items
		}},
	}
	for _, sh := range shapes {
		for _, n := range []int{0, 1, 2, 15, 16, 17, 257, 5000} {
			t.Run(fmt.Sprintf("%s/%d", sh.name, n), func(t *testing.T) {
				checkSortItems(t, sh.gen(rand.New(rand.NewSource(int64(n))), n))
			})
		}
	}
}

// genItems returns n items with the given priorities and a shuffled
// permutation of the ids 1..n, each Value naming its item's index.
func genItems(rng *rand.Rand, n int, prio func() int64) []Item {
	items := make([]Item, n)
	for i, id := range rng.Perm(n) {
		items[i] = Item{ID: uint64(id + 1), Priority: prio(), Value: []byte(fmt.Sprint("v", i))}
	}
	return items
}

// FuzzSortItems: every 4 input bytes make one item. The priority varies in
// its top byte (sign included) and its bottom byte, so the digits between
// agree and are skipped; the id varies in its top and fifth bytes, and its
// low bits hold the item's index, which keeps the ids distinct.
func FuzzSortItems(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0, 0, 0, 0x7f, 0xff, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0})
	f.Add(make([]byte, 4*17))
	var descending []byte // one priority, ids falling in their top byte
	for i := 40; i > 0; i-- {
		descending = append(descending, 0, 0, byte(i), 0)
	}
	f.Add(descending)
	seed := make([]byte, 4*300)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		items := make([]Item, len(data)/4)
		for i := range items {
			c := data[4*i : 4*i+4]
			items[i] = Item{
				Priority: int64(uint64(c[0])<<56 | uint64(c[1])),
				ID:       uint64(c[2])<<56 | uint64(c[3])<<32 | uint64(i),
				Value:    []byte(fmt.Sprint("v", i)),
			}
		}
		checkSortItems(t, items)
	})
}
