// Parallel discrete-event simulation — the motivating workload from the
// paper's introduction. The pending-event set of a discrete-event simulator
// is a priority queue keyed by event time; with many worker threads
// executing events concurrently, the queue becomes the scalability
// bottleneck, which is exactly the regime the SkipQueue targets.
//
//	go run ./examples/dessim [-events N] [-workers W] [-stations S]
//
// The model is an open queueing network of S service stations. Jobs arrive
// at random stations, wait for the station to free up, get served, and then
// either hop to another station or leave. Each worker pops the globally
// earliest event, executes it (possibly scheduling follow-up events), and
// repeats. Station state is guarded by per-station locks; the shared event
// list is the skipqueue.PQ and needs no external locking.
//
// Concurrent timestamp-ordered execution makes this an optimistic simulation
// with a tolerance window: a worker may execute an event slightly out of
// global order when another worker holds an earlier one. For this network
// model the station locks make such reorderings commute, so throughput
// statistics are unaffected; the example reports the maximum observed
// reordering so you can see the effect.
package main

import (
	"flag"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"math/rand"

	"skipqueue"
)

type eventKind int

const (
	evArrive eventKind = iota // job arrives at a station queue
	evFinish                  // station completes its current job
)

type event struct {
	kind    eventKind
	station int
	job     int
}

type station struct {
	mu      sync.Mutex
	busy    bool
	waiting []int // job ids queued at this station
	served  int
}

func main() {
	var (
		nEvents  = flag.Int("events", 200000, "number of seed jobs")
		nWorkers = flag.Int("workers", 8, "worker goroutines")
		nStat    = flag.Int("stations", 64, "service stations")
		relaxed  = flag.Bool("relaxed", false, "use the relaxed SkipQueue")
		metrics  = flag.Bool("metrics", false, "print the queue's probe snapshot")
	)
	flag.Parse()

	opts := []skipqueue.Option{skipqueue.WithSeed(1)}
	if *relaxed {
		opts = append(opts, skipqueue.WithRelaxed())
	}
	events := skipqueue.NewPQ[event](opts...)
	stations := make([]station, *nStat)

	// Seed the event list with job arrivals spread over simulated time.
	seedRng := rand.New(rand.NewSource(42))
	for j := 0; j < *nEvents; j++ {
		events.Push(int64(seedRng.Intn(*nEvents*10)), event{
			kind:    evArrive,
			station: seedRng.Intn(*nStat),
			job:     j,
		})
	}

	var (
		executed   atomic.Int64
		departures atomic.Int64
		maxSkew    atomic.Int64 // worst timestamp inversion observed
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 7))
			var lastT int64 = -1 << 62
			for {
				t, ev, ok := events.Pop()
				if !ok {
					// The event list can be transiently empty while other
					// workers are about to schedule follow-ups. Only stop
					// once every job has left the network.
					if departures.Load() >= int64(*nEvents) {
						return
					}
					runtime.Gosched()
					continue
				}
				if skew := lastT - t; skew > maxSkew.Load() {
					maxSkew.Store(skew)
				}
				lastT = t
				executed.Add(1)

				st := &stations[ev.station]
				switch ev.kind {
				case evArrive:
					st.mu.Lock()
					if st.busy {
						st.waiting = append(st.waiting, ev.job)
						st.mu.Unlock()
					} else {
						st.busy = true
						st.mu.Unlock()
						// Service takes 1..100 time units.
						events.Push(t+1+int64(rng.Intn(100)), event{
							kind: evFinish, station: ev.station, job: ev.job,
						})
					}
				case evFinish:
					st.mu.Lock()
					st.served++
					var next int
					hasNext := false
					if len(st.waiting) > 0 {
						next = st.waiting[0]
						st.waiting = st.waiting[1:]
						hasNext = true
					} else {
						st.busy = false
					}
					st.mu.Unlock()
					if hasNext {
						events.Push(t+1+int64(rng.Intn(100)), event{
							kind: evFinish, station: ev.station, job: next,
						})
					}
					// The finished job hops onward with probability 1/4.
					if rng.Intn(4) == 0 {
						events.Push(t+1+int64(rng.Intn(50)), event{
							kind: evArrive, station: rng.Intn(*nStat), job: ev.job,
						})
					} else {
						departures.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	served := 0
	for i := range stations {
		served += stations[i].served
	}
	fmt.Printf("executed %d events (%d services, %d departures) in %v\n",
		executed.Load(), served, departures.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f events/sec across %d workers\n",
		float64(executed.Load())/elapsed.Seconds(), *nWorkers)
	fmt.Printf("max timestamp reordering observed: %d time units (relaxed=%v)\n",
		maxSkew.Load(), *relaxed)
	st := events.Stats()
	fmt.Printf("queue stats: %d pushes, %d pops, %d scan steps\n",
		st.Inserts, st.DeleteMins, st.ScanSteps)
	if *metrics {
		// The event list's contention probes show where pop time goes
		// when the pending-event set is the bottleneck.
		fmt.Println()
		fmt.Println(events.Snapshot().Table())
	}
}
