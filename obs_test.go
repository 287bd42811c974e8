package skipqueue

import (
	"encoding/json"
	"sync"
	"testing"
)

// TestSnapshotDisabledByDefault: without WithMetrics every family returns the
// zero Snapshot and pays only nil checks.
func TestSnapshotDisabledByDefault(t *testing.T) {
	for name, q := range map[string]Instrumented{
		"Queue":          New[int64, int](),
		"PQ":             NewPQ[int](),
		"LockFree":       NewLockFree[int64, int](),
		"Heap":           NewHeap[int64, int](1 << 10),
		"GlobalLockHeap": NewGlobalLockHeap[int64, int](),
		"FunnelList":     NewFunnelList[int64, int](),
	} {
		if s := q.Snapshot(); s.Enabled {
			t.Errorf("%s: metrics enabled without WithMetrics", name)
		}
	}
}

// TestSnapshotAllFamilies drives every family through the Instrumented
// interface with metrics on and checks that the operation histograms counted
// every call.
func TestSnapshotAllFamilies(t *testing.T) {
	const n = 300
	type family struct {
		q      Instrumented
		insert func(int64)
		del    func() bool
		insKey string
		delKey string
	}
	sq := New[int64, int](WithMetrics())
	pq := NewPQ[int](WithMetrics())
	lf := NewLockFree[int64, int](WithMetrics())
	hp := NewHeap[int64, int](1<<12, WithMetrics())
	gl := NewGlobalLockHeap[int64, int](WithMetrics())
	fl := NewFunnelList[int64, int](WithMetrics())
	families := map[string]family{
		"Queue": {sq, func(k int64) { sq.Insert(k, 0) },
			func() bool { _, _, ok := sq.DeleteMin(); return ok }, "insert", "deletemin"},
		"PQ": {pq, func(k int64) { pq.Push(k, 0) },
			func() bool { _, _, ok := pq.Pop(); return ok }, "insert", "deletemin"},
		"LockFree": {lf, func(k int64) { lf.Insert(k, 0) },
			func() bool { _, _, ok := lf.DeleteMin(); return ok }, "insert", "deletemin"},
		"Heap": {hp, func(k int64) { _ = hp.Insert(k, 0) },
			func() bool { _, _, ok := hp.DeleteMin(); return ok }, "insert", "deletemin"},
		"GlobalLockHeap": {gl, func(k int64) { gl.Insert(k, 0) },
			func() bool { _, _, ok := gl.DeleteMin(); return ok }, "insert", "deletemin"},
		"FunnelList": {fl, func(k int64) { fl.Insert(k, 0) },
			func() bool { _, _, ok := fl.DeleteMin(); return ok }, "insert", "deletemin"},
	}
	for name, f := range families {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := int64(w+1) << 32
				for i := int64(0); i < n; i++ {
					f.insert(base + i)
				}
				for i := 0; i < n; i++ {
					f.del()
				}
			}(w)
		}
		wg.Wait()

		s := f.q.Snapshot()
		if !s.Enabled {
			t.Errorf("%s: snapshot not enabled", name)
			continue
		}
		ins, ok := s.Hist(f.insKey)
		if !ok || ins.Count != 4*n {
			t.Errorf("%s: insert hist count = %d (present=%v), want %d", name, ins.Count, ok, 4*n)
		}
		del, ok := s.Hist(f.delKey)
		if !ok || del.Count != 4*n {
			t.Errorf("%s: deletemin hist count = %d (present=%v), want %d", name, del.Count, ok, 4*n)
		}
		if _, err := json.Marshal(s); err != nil {
			t.Errorf("%s: snapshot does not marshal: %v", name, err)
		}
		if s.String() == "" {
			t.Errorf("%s: empty table rendering", name)
		}
	}
}
