package quality

import (
	"strings"
	"testing"
)

func ins(key int64, id uint64, stamp int64) Event {
	return Event{Insert: true, Key: key, ID: id, OK: true, Stamp: stamp}
}

func del(key int64, id uint64, stamp int64) Event {
	return Event{Key: key, ID: id, OK: true, Stamp: stamp}
}

func empty(stamp int64) Event { return Event{Stamp: stamp} }

// TestRanksExact: handmade history with known rank errors.
func TestRanksExact(t *testing.T) {
	h := []Event{
		ins(10, 1, 1),
		ins(20, 2, 2),
		ins(30, 3, 3),
		del(30, 3, 4), // two live elements (10, 20) are smaller: rank 2
		del(10, 1, 5), // minimum: rank 0
		del(20, 2, 6), // minimum: rank 0
		empty(7),
	}
	rep, err := Analyze(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Ranks) != 3 || rep.Ranks[0] != 2 || rep.Ranks[1] != 0 || rep.Ranks[2] != 0 {
		t.Fatalf("Ranks = %v, want [2 0 0]", rep.Ranks)
	}
	if rep.MaxRank != 2 || rep.MeanRank < 0.66 || rep.MeanRank > 0.67 {
		t.Fatalf("summary = %s", rep)
	}
	if rep.Empties != 1 || rep.FalseEmpties != 0 {
		t.Fatalf("empties = %d false = %d, want 1/0", rep.Empties, rep.FalseEmpties)
	}
}

// TestEqualKeysDoNotCount: rank counts strictly smaller keys only, so
// draining equal priorities in any order scores zero.
func TestEqualKeysDoNotCount(t *testing.T) {
	h := []Event{
		ins(5, 1, 1), ins(5, 2, 2), ins(5, 3, 3),
		del(5, 3, 4), del(5, 1, 5), del(5, 2, 6),
	}
	rep, err := Analyze(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxRank != 0 {
		t.Fatalf("MaxRank = %d, want 0", rep.MaxRank)
	}
}

// TestDeleteBeforeInsertStamp: a delivery whose insert event carries a
// later stamp is a legal race, not a phantom.
func TestDeleteBeforeInsertStamp(t *testing.T) {
	h := []Event{
		del(7, 1, 1),
		ins(7, 1, 2),
	}
	rep, err := Analyze(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deletes != 1 || rep.Inserts != 1 {
		t.Fatalf("report = %s", rep)
	}
}

func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), frag) {
		t.Fatalf("err = %v, want containing %q", err, frag)
	}
}

// TestDetectsViolations: each conservation failure mode is caught.
func TestDetectsViolations(t *testing.T) {
	t.Run("duplicate delivery", func(t *testing.T) {
		_, err := Analyze([]Event{ins(1, 1, 1), del(1, 1, 2), del(1, 1, 3)}, nil)
		wantErr(t, err, "delivered twice")
	})
	t.Run("phantom", func(t *testing.T) {
		_, err := Analyze([]Event{del(1, 99, 1)}, nil)
		wantErr(t, err, "phantom")
	})
	t.Run("lost", func(t *testing.T) {
		_, err := Analyze([]Event{ins(1, 1, 1)}, nil) // nothing remains
		wantErr(t, err, "lost")
	})
	t.Run("key mismatch", func(t *testing.T) {
		_, err := Analyze([]Event{ins(1, 1, 1), del(2, 1, 2)}, nil)
		wantErr(t, err, "delivered with key")
	})
	t.Run("remainder never inserted", func(t *testing.T) {
		_, err := Analyze(nil, []Element{{Key: 1, ID: 5}})
		wantErr(t, err, "never inserted")
	})
	t.Run("remainder duplicated", func(t *testing.T) {
		_, err := Analyze([]Event{ins(1, 1, 1), ins(1, 2, 2)},
			[]Element{{Key: 1, ID: 1}, {Key: 1, ID: 1}})
		wantErr(t, err, "present twice")
	})
	t.Run("duplicate insert id", func(t *testing.T) {
		_, err := Analyze([]Event{ins(1, 1, 1), ins(2, 1, 2)}, nil)
		wantErr(t, err, "inserted twice")
	})
}

// TestRemainderMatch: inserted-minus-delivered must equal the remainder.
func TestRemainderMatch(t *testing.T) {
	h := []Event{ins(1, 1, 1), ins(2, 2, 2), del(1, 1, 3)}
	if _, err := Analyze(h, []Element{{Key: 2, ID: 2}}); err != nil {
		t.Fatal(err)
	}
}

// TestFalseEmpty: EMPTY with live elements is counted, not fatal.
func TestFalseEmpty(t *testing.T) {
	h := []Event{ins(1, 1, 1), empty(2), del(1, 1, 3)}
	rep, err := Analyze(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FalseEmpties != 1 {
		t.Fatalf("FalseEmpties = %d, want 1", rep.FalseEmpties)
	}
}

// TestCheckBound: the bound passes plausible distributions and fails a
// history whose ranks blow past the O(P·log P) shape.
func TestCheckBound(t *testing.T) {
	rep := &Report{MeanRank: 3, P99Rank: 32, MaxRank: 40, Ranks: []int{40}}
	if err := rep.CheckBound(8); err != nil {
		t.Fatalf("plausible report rejected: %v", err)
	}
	bad := &Report{MeanRank: 500, P99Rank: 100000, MaxRank: 100000}
	if err := bad.CheckBound(8); err == nil {
		t.Fatal("pathological report passed the bound")
	}
	// A biased queue: one shard of 2 never drained while 5000 smaller
	// elements sat in it — mean rank ~5000 must fail even for P=64.
	biased := &Report{MeanRank: 5000, P99Rank: 5000, MaxRank: 5000}
	if err := biased.CheckBound(64); err == nil {
		t.Fatal("starved-shard report passed the bound")
	}
	// The max is logged, not gated: one delivery by a descheduled worker
	// (max 2445 against a tail bound of 2112 for 8 shards) is within
	// contract as long as the p99 is inside the bound; a fat tail is not.
	_, maxP99 := Bound(8)
	outlier := &Report{MeanRank: 4, P99Rank: 32, MaxRank: maxP99 + 333}
	if err := outlier.CheckBound(8); err != nil {
		t.Fatalf("single-outlier report rejected: %v", err)
	}
	fat := &Report{MeanRank: 4, P99Rank: maxP99 + 1, MaxRank: maxP99 + 333}
	if err := fat.CheckBound(8); err == nil {
		t.Fatal("report with its p99 above the bound passed")
	}
}
