package main

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"skipqueue"
	"skipqueue/internal/quality"
	"skipqueue/internal/sharded"
	"skipqueue/internal/spray"
)

// The frontier puts the relaxed backends on one throughput-against-rank-
// error plane: 2 goroutines on a 50/50 mix over each root adapter, first
// untraced for the time per operation, then a fixed number of operations
// recorded through the queue's tracer hook and replayed by
// quality.Analyze for the rank error. Elimination is strict, so it
// reports the share of operations that met in the exchanger instead.

const frontierPrefill = 1000

// churn runs goroutines of balanced 50/50 Push/Pop until stop returns
// true (polled every 256 ops), and returns the operations done.
func churn(q pushPop, seed uint64, goroutines int, stop func(done int) bool) int64 {
	var wg sync.WaitGroup
	done := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(g)+1))
			val := make([]byte, 16)
			bal, n := 0, 0
			for ; n&255 != 0 || !stop(n); n++ {
				push := rng.Uint64()&1 == 0
				if bal >= 256 {
					push = false
				} else if bal <= -256 {
					push = true
				}
				if push {
					q.Push(rng.Int64N(1<<20), val)
					bal++
				} else {
					q.Pop()
					bal--
				}
			}
			done[g] = int64(n)
		}(g)
	}
	wg.Wait()
	var total int64
	for _, n := range done {
		total += n
	}
	return total
}

// nsPerOp churns q for the frontier's duration and returns the wall time
// per operation.
func nsPerOp(q pushPop, o runOpts) float64 {
	for i := 0; i < frontierPrefill; i++ {
		q.Push(int64(i)<<10, nil)
	}
	d := time.Duration(o.spec.Ladder.FrontierS * float64(time.Second))
	start := time.Now()
	ops := churn(q, o.seed, 2, func(int) bool { return time.Since(start) >= d })
	return float64(time.Since(start)) / float64(ops)
}

func runFrontier(o runOpts) (map[string]float64, error) {
	vals := map[string]float64{}
	perG := o.spec.Ladder.FrontierRecordedOps / 2
	stopAt := func(n int) bool { return n >= perG }

	// rankError churns q with its tracer feeding a recorder, then replays
	// the history against what is left in the queue.
	rankError := func(name string, q pushPop, trace func(*quality.Recorder), left func() []quality.Element) error {
		rec := quality.NewRecorder(2 * perG)
		trace(rec)
		churn(q, o.seed, 2, stopAt)
		rep, err := quality.Analyze(rec.Events(), left())
		if err != nil {
			return fmt.Errorf("frontier: %s: %w", name, err)
		}
		vals[name+".rank_err_mean"] = rep.MeanRank
		vals[name+".rank_err_p99"] = float64(rep.P99Rank)
		return nil
	}

	vals["sharded.ns_per_op"] = nsPerOp(skipqueue.NewShardedPQ[[]byte](0), o)
	sh := skipqueue.NewShardedPQ[[]byte](0)
	err := rankError("sharded", sh, func(rec *quality.Recorder) {
		sh.Unwrap().SetTracer(func(e sharded.Event) {
			rec.Record(quality.Event{Insert: e.Insert, Key: e.Priority, ID: e.Seq, OK: e.OK, Stamp: e.Stamp})
		})
	}, func() (left []quality.Element) {
		for _, e := range sh.Unwrap().Entries() {
			left = append(left, quality.Element{Key: e.Priority, ID: e.Seq})
		}
		return left
	})
	if err != nil {
		return nil, err
	}

	vals["spray.ns_per_op"] = nsPerOp(skipqueue.NewSprayPQ[[]byte](0), o)
	sp := skipqueue.NewSprayPQ[[]byte](0)
	err = rankError("spray", sp, func(rec *quality.Recorder) {
		sp.Unwrap().SetTracer(func(e spray.Event) {
			rec.Record(quality.Event{Insert: e.Insert, Key: e.Priority, ID: e.Seq, OK: e.OK, Stamp: e.Stamp})
		})
	}, func() (left []quality.Element) {
		for _, e := range sp.Unwrap().Entries() {
			left = append(left, quality.Element{Key: e.Priority, ID: e.Seq})
		}
		return left
	})
	if err != nil {
		return nil, err
	}

	vals["elim.ns_per_op"] = nsPerOp(skipqueue.NewElimPQ[[]byte](0), o)
	el := skipqueue.NewElimPQ[[]byte](0, skipqueue.WithMetrics())
	ops := churn(el, o.seed, 2, stopAt)
	vals["elim.hit_share"] = 2 * float64(el.Snapshot().Counter("exchange.hits")) / float64(ops)
	return vals, nil
}
