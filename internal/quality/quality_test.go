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
	if rep.MaxRank != 2 || rep.P99Rank != 2 || rep.MeanRank < 0.66 || rep.MeanRank > 0.67 {
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
	t.Run("remainder already delivered", func(t *testing.T) {
		_, err := Analyze([]Event{ins(1, 1, 1), del(1, 1, 2)}, []Element{{Key: 1, ID: 1}})
		wantErr(t, err, "already delivered")
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

// TestHealthyHistoryMutations: each single-fault corruption of a healthy
// history that leaves a remainder must be named, while the healthy one
// passes.
func TestHealthyHistoryMutations(t *testing.T) {
	healthy := []Event{ins(5, 1, 1), ins(3, 2, 2), del(3, 2, 3)}
	remaining := []Element{{Key: 5, ID: 1}}
	if _, err := Analyze(healthy, remaining); err != nil {
		t.Fatalf("healthy history rejected: %v", err)
	}
	cases := []struct {
		name      string
		history   []Event
		remaining []Element
		want      string
	}{
		{"double delivery", append(healthy[:3:3], del(3, 2, 4)), remaining, "delivered twice"},
		{"double insert", append(healthy[:3:3], ins(3, 2, 4)), remaining, "inserted twice"},
		{"phantom delivery", append(healthy[:3:3], del(99, 9, 4)), remaining, "never inserted"},
		{"lost element", healthy, nil, "lost"},
		{"phantom remainder", healthy, []Element{{Key: 5, ID: 1}, {Key: 8, ID: 4}}, "never inserted"},
		{"remainder drained twice", healthy, []Element{{Key: 5, ID: 1}, {Key: 5, ID: 1}}, "present twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Analyze(tc.history, tc.remaining)
			wantErr(t, err, tc.want)
		})
	}
}

// TestOutOfOrderWithFalseEmpty: deliveries above the minimum and an EMPTY
// while an element is live are both legal in a relaxed history; the report
// ranks the one and counts the other.
func TestOutOfOrderWithFalseEmpty(t *testing.T) {
	rep, err := Analyze([]Event{
		ins(5, 1, 1), ins(3, 2, 2), ins(9, 3, 3),
		del(9, 3, 4), // rank 2: 3 and 5 live below it
		del(3, 2, 5), // rank 0
		empty(6),     // false: 5/1 still live
		del(5, 1, 7), // rank 0
		empty(8),     // true EMPTY
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Inserts != 3 || rep.Deletes != 3 || rep.Empties != 2 || rep.FalseEmpties != 1 {
		t.Fatalf("counts: %s", rep)
	}
	if len(rep.Ranks) != 3 || rep.Ranks[0] != 2 || rep.Ranks[1] != 0 || rep.Ranks[2] != 0 {
		t.Fatalf("Ranks = %v, want [2 0 0]", rep.Ranks)
	}
}

// TestEqualKeysWithRemainder: equal keys are distinct elements under their
// IDs, so one of them may remain while the others are delivered unranked.
func TestEqualKeysWithRemainder(t *testing.T) {
	rep, err := Analyze([]Event{
		ins(7, 1, 1), ins(7, 2, 2), ins(7, 3, 3),
		del(7, 2, 4), del(7, 1, 5),
	}, []Element{{Key: 7, ID: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Ranks {
		if r != 0 {
			t.Fatalf("rank[%d] = %d, want 0 among equal keys", i, r)
		}
	}
}

// TestInFlightDelivery: a delivery stamped before its insert is legal only
// once the insert event arrives; without it the delivery is a phantom.
func TestInFlightDelivery(t *testing.T) {
	if _, err := Analyze([]Event{del(4, 1, 1), ins(4, 1, 2)}, nil); err != nil {
		t.Fatal(err)
	}
	_, err := Analyze([]Event{del(4, 1, 1)}, nil)
	wantErr(t, err, "phantom")
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
