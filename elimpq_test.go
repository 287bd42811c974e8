package skipqueue

import (
	"testing"
)

// TestElimPQBasic: sequential behaviour is exactly the inner queue's
// (sequential Pushes can never eliminate — no Pop is waiting — so
// everything falls through).
func TestElimPQBasic(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		q := NewElimPQ[uint64](4, WithSeed(1))
		if _, _, ok := q.Pop(); ok {
			t.Fatal("Pop on empty reported ok")
		}
		for i, pri := range []int64{30, 10, 20, 10} {
			q.Push(pri, uint64(i))
		}
		if q.Len() != 4 {
			t.Fatalf("Len = %d, want 4", q.Len())
		}
		if k, _, ok := q.Peek(); !ok || k != 10 {
			t.Fatalf("Peek = (%d, %v), want (10, true)", k, ok)
		}
		var got []int64
		for {
			k, _, ok := q.Pop()
			if !ok {
				break
			}
			got = append(got, k)
		}
		want := []int64{10, 10, 20, 30}
		if len(got) != len(want) {
			t.Fatalf("drained %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("drained %v, want %v", got, want)
			}
		}
	})
}

// TestElimPQSnapshotMerges: the adapter's Snapshot carries both the
// front-end's probe set and the inner queue's.
func TestElimPQSnapshotMerges(t *testing.T) {
	q := NewElimPQ[uint64](4, WithSeed(1), WithMetrics())
	q.Push(5, 1) // sequential: publishes, times out, falls through
	if _, _, ok := q.Pop(); !ok {
		t.Fatal("Pop failed")
	}
	snap := q.Snapshot()
	if !snap.Enabled {
		t.Fatal("snapshot not enabled with WithMetrics")
	}
	if got := snap.Counter("fallthrough.pushes"); got != 1 {
		t.Fatalf("fallthrough.pushes = %d, want 1 (elim probes missing from merge)", got)
	}
	if snap.Counter("scan.steps") == 0 {
		t.Fatal("inner queue probes missing from merged snapshot")
	}
	if q.Slots() != 4 {
		t.Fatalf("Slots = %d, want 4", q.Slots())
	}
	if q.Unwrap() == nil {
		t.Fatal("Unwrap returned nil")
	}

	// Without WithMetrics the snapshot is published all the same, like
	// every skiplist-family queue's.
	off := NewElimPQ[uint64](0, WithSeed(1))
	off.Push(1, 1)
	if s := off.Snapshot(); !s.Enabled || s.Counter("fallthrough.pushes") != 1 {
		t.Fatalf("metrics-off snapshot not published: %+v", s)
	}
}
