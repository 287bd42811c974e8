package core

import (
	"sync"
	"testing"
)

// TestObsCountsOperations: the probe readings agree with the Stats counters
// on a quiescent queue.
func TestObsCountsOperations(t *testing.T) {
	q := newIntQueue(t, Config{})
	const n = 200
	for i := int64(0); i < n; i++ {
		q.Insert(i, i)
	}
	for i := 0; i < n; i++ {
		if _, _, ok := q.DeleteMin(); !ok {
			t.Fatalf("DeleteMin %d failed", i)
		}
	}
	q.DeleteMin() // one empty

	snap := q.ObsSnapshot()
	if !snap.Enabled {
		t.Fatal("snapshot disabled")
	}
	st := q.Stats()
	if got := snap.Counter("scan.steps"); got != st.ScanSteps {
		t.Fatalf("scan.steps probe %d != Stats.ScanSteps %d", got, st.ScanSteps)
	}
	if got := snap.Counter("lock.retries"); got != st.LockRetries {
		t.Fatalf("lock.retries probe %d != Stats.LockRetries %d", got, st.LockRetries)
	}
}

// TestObsUnderContention: the probes stay consistent with the operations
// completed under a concurrent mixed load, and the skip classification
// (marked vs young) decomposes the legacy combined skip counter.
func TestObsUnderContention(t *testing.T) {
	q := newIntQueue(t, Config{})
	const workers = 8
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w) * perWorker
			for i := int64(0); i < perWorker; i++ {
				q.Insert(base+i, i)
				if i%2 == 1 {
					q.DeleteMin()
				}
			}
		}(w)
	}
	wg.Wait()

	snap := q.ObsSnapshot()
	st := q.Stats()
	decomposed := snap.Counter("scan.marked_skips") + snap.Counter("scan.young_skips")
	if decomposed != st.ScanSkips {
		t.Fatalf("marked+young skips = %d, Stats.ScanSkips = %d", decomposed, st.ScanSkips)
	}
}
