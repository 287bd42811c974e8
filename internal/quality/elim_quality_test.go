package quality_test

import (
	"sync"
	"testing"
	"time"

	"skipqueue/internal/elim"
	"skipqueue/internal/quality"
	"skipqueue/internal/sharded"
	"skipqueue/internal/xrand"
)

// recordElim wires an ElimPQ's exchange tracer into the same Recorder as
// the inner sharded queue's: elimination identities carry the top bit, so
// the two ID spaces never collide and Analyze sees one merged history,
// stamped from the inner queue's clock.
func recordElim(p *elim.PQ[uint64], rec *quality.Recorder, clock func() int64) {
	p.SetTracer(func(e elim.Event) {
		rec.Record(quality.Event{Insert: e.Insert, Key: e.Priority, ID: e.Seq, OK: e.OK, Stamp: e.Stamp})
	}, clock)
}

// TestElimOverShardedQuality runs the rank-error harness over the
// elimination front-end wrapping a ShardedPQ: eliminated deliveries must
// count toward multiset conservation — zero lost, duplicated, or phantom
// elements — and the rank-error distribution must stay within the same
// choice-of-two bound as the bare sharded queue (an eliminated key was at
// most an observed queue minimum, so exchanges do not widen it).
func TestElimOverShardedQuality(t *testing.T) {
	const shards = 8
	p := sharded.New[uint64](sharded.Config{Shards: shards, Seed: 17})
	rec := quality.NewRecorder(131072)
	record(p, rec)
	e := elim.New[uint64](p, elim.Config{
		Slots: 4, Timeout: 200 * time.Microsecond,
	})
	recordElim(e, rec, p.Stamp)

	workers := 8
	perWorker := 5000
	if testing.Short() {
		workers, perWorker = 4, 1200
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.NewRand(uint64(w)*0x9e3779b97f4a7c15 + 17)
			for i := 0; i < perWorker; i++ {
				// Hot, narrow key range: plenty of Pushes at or below the
				// running minimum, the elimination-friendly regime.
				if rng.Intn(10) < 6 {
					e.Push(rng.Int63()%1000, uint64(w*perWorker+i))
				} else {
					e.Pop()
				}
			}
		}(w)
	}
	wg.Wait()

	rep, err := quality.Analyze(rec.Events(), remaining(p))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deletes == 0 {
		t.Fatal("no successful deletes recorded; workload broken")
	}
	if err := rep.CheckBound(shards); err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	hits := e.ObsSnapshot().Counter("exchange.hits")
	t.Logf("elim over sharded: %s; exchange hits=%d timeouts=%d", rep,
		hits, e.ObsSnapshot().Counter("publish.timeouts"))
	if hits == 0 {
		t.Log("note: scheduler produced no eliminations this run; conservation still checked")
	}
}
