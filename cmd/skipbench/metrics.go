package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"skipqueue"
	"skipqueue/internal/obs"
	"skipqueue/internal/xrand"
)

// runMetrics drives the native queue families through a short mixed
// workload with the observability probes on and prints each family's
// snapshot: the contention counters specific to its synchronization design
// (lock retries for the skiplist, bit-reversal lock chases for the Hunt
// heap, combining depth for the funnel), plus per-operation latency
// histograms for the heap and funnel baselines. Unlike the simulated
// experiments above, this measures the real Go implementations on the host.
func runMetrics(w *os.File, workers int, d time.Duration, seed uint64, outPath string) {
	fmt.Fprintf(w, "# Observability: native queues under a mixed workload (workers=%d duration=%v)\n\n",
		workers, d)

	type target struct {
		name   string
		inst   skipqueue.Instrumented
		insert func(int64)
		del    func()
	}
	sq := skipqueue.New[int64, int64](skipqueue.WithSeed(seed), skipqueue.WithMetrics())
	hp := skipqueue.NewHeap[int64, int64](1<<22, skipqueue.WithMetrics())
	fl := skipqueue.NewFunnelList[int64, int64](skipqueue.WithMetrics())
	sh := skipqueue.NewShardedPQ[int64](0, skipqueue.WithSeed(seed), skipqueue.WithMetrics())
	el := skipqueue.NewElimPQ[int64](0, skipqueue.WithSeed(seed), skipqueue.WithMetrics())
	sp := skipqueue.NewSprayPQ[int64](0, skipqueue.WithSeed(seed), skipqueue.WithMetrics())
	targets := []target{
		{"SkipQueue", sq, func(k int64) { sq.Insert(k, k) }, func() { sq.DeleteMin() }},
		{"Heap", hp, func(k int64) { _ = hp.Insert(k, k) }, func() { hp.DeleteMin() }},
		{"FunnelList", fl, func(k int64) { fl.Insert(k, k) }, func() { fl.DeleteMin() }},
		{"Sharded", sh, func(k int64) { sh.Push(k, k) }, func() { sh.Pop() }},
		{"Elim", el, func(k int64) { el.Push(k, k) }, func() { el.Pop() }},
		{"Spray", sp, func(k int64) { sp.Push(k, k) }, func() { sp.Pop() }},
	}

	snapshots := map[string]skipqueue.Snapshot{}
	for _, t := range targets {
		rng := xrand.NewRand(seed)
		for i := 0; i < 1000; i++ {
			t.insert(rng.Int63() % (1 << 40))
		}
		deadline := time.Now().Add(d)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				r := xrand.NewRand(seed + uint64(wk)*0x9e3779b97f4a7c15)
				obs.Do(t.name, func() {
					for time.Now().Before(deadline) {
						if r.Float64() < 0.5 {
							t.insert(r.Int63() % (1 << 40))
						} else {
							t.del()
						}
					}
				})
			}(wk)
		}
		wg.Wait()
		s := t.inst.Snapshot()
		snapshots[t.name] = s
		fmt.Fprintln(w, s.Table())
	}

	if outPath != "" {
		data, err := json.MarshalIndent(snapshots, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipbench: writing %s: %v\n", outPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "wrote %d snapshots to %s\n", len(snapshots), outPath)
	}
}
