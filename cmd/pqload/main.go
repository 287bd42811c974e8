// Command pqload is the operator's load generator for pqd: it drives a
// mixed Insert/DeleteMin workload over internal/client and prints
// throughput and latency quantiles. It is a tool for poking a running
// daemon, not a measuring instrument: the repository's performance
// numbers come from bench/ (see bench/README.md), which records the
// machine and the full parameter set with every figure.
//
// Two modes:
//
//   - closed loop (default): -workers goroutines each issue the next
//     operation as soon as the previous one completes. Measures the
//     server's saturated throughput.
//   - open loop (-rate N): operations are dispatched on a fixed schedule
//     of N ops/sec regardless of completions, and latency is measured
//     from the scheduled dispatch time, so queueing delay shows up in the
//     quantiles instead of being silently omitted (Gruber's
//     coordinated-omission point).
//
// With -lease (closed loop only, against a pqd started with -lease) the
// consume side speaks the at-least-once protocol instead of DeleteMin:
// each pop is a PopLease round trip followed by an Ack round trip, both
// counted and timed as separate operations. -lease-abandon simulates
// consumer crashes: that fraction of granted leases is never acked, so
// the server's expiry sweep redelivers them mid-run.
//
// The exit status is 0 only if every operation succeeded: any failed
// operation (errors=N in the summary line) or a failed final Len exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"skipqueue/internal/client"
	"skipqueue/internal/flight"
	"skipqueue/internal/hist"
	"skipqueue/internal/xrand"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tally counts the run's operations and failures across all workers.
type tally struct {
	ops, errs atomic.Uint64
}

// done counts one finished operation; a successful one records its
// latency since t0 in h.
func (t *tally) done(h *hist.H, t0 time.Time, err error) {
	if err != nil {
		t.errs.Add(1)
	} else {
		h.Observe(time.Since(t0))
	}
	t.ops.Add(1)
}

// run is main minus os.Exit, factored out so tests can drive the
// generator in-process against a loopback server.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pqload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:9400", "pqd address")
		conns    = fs.Int("conns", 8, "pooled connections: round-robin per call, or with -batch-linger one linger window (one frame) per connection in turn")
		workers  = fs.Int("workers", 16, "closed-loop worker goroutines")
		duration = fs.Duration("duration", 10*time.Second, "measurement window")
		rate     = fs.Int("rate", 0, "open-loop target ops/sec (0 = closed loop)")
		mix      = fs.Float64("mix", 0.5, "fraction of operations that are Inserts")
		valueSz  = fs.Int("value", 16, "value payload bytes")
		prefill  = fs.Int("prefill", 1000, "elements inserted before measuring")
		keyspace = fs.Int64("keyspace", 1<<20, "priorities drawn uniformly from [0, keyspace)")
		seed     = fs.Int64("seed", 1, "workload RNG seed")
		batchMax = fs.Int("batch", 0, "client-side op coalescing: pack up to this many pending ops per OpBatch frame (0 = off)")
		linger   = fs.Duration("batch-linger", 0, "with -batch, how long the writer waits for more pending ops before flushing a short batch; ops go to one connection per window instead of round-robin")
		lease    = fs.Bool("lease", false, "consume via PopLease/Ack (at-least-once) instead of DeleteMin; needs a lease-enabled pqd, closed loop only")
		leaseTTL = fs.Duration("lease-ttl", 0, "per-lease TTL sent with PopLease (0 = server default)")
		abandon  = fs.Float64("lease-abandon", 0, "fraction of granted leases never acked — simulated consumer crashes the server must redeliver")
		traceOut = fs.String("trace-out", "", "record end-to-end traces and write the client flight dump (JSON) to this file; pair with a pqd started with -flight and feed both to cmd/pqtrace")
		traceEvs = fs.Int("trace-events", 1<<16, "client flight-recorder ring slots per shard (with -trace-out)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the load generator itself to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *lease && *rate > 0 {
		fmt.Fprintln(stderr, "pqload: -lease is closed-loop only (no async lease API); drop -rate")
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "pqload: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "pqload: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var tracer *flight.Recorder
	if *traceOut != "" {
		tracer = flight.New("client", 0, *traceEvs)
	}
	cl, err := client.Dial(client.Config{
		Addr:        *addr,
		Conns:       *conns,
		Flight:      tracer,
		BatchMax:    *batchMax,
		BatchLinger: *linger,
	})
	if err != nil {
		fmt.Fprintf(stderr, "pqload: %v\n", err)
		return 1
	}
	defer cl.Close()

	value := make([]byte, *valueSz)
	for i := range value {
		value[i] = byte('a' + i%26)
	}
	keys, rng := uint64(*keyspace), xrand.NewRand(uint64(*seed))
	for i := 0; i < *prefill; i++ {
		if err := cl.Insert(int64(rng.Uint64n(keys)), value); err != nil {
			fmt.Fprintf(stderr, "pqload: prefill: %v\n", err)
			return 1
		}
	}

	var (
		insertH, deleteH hist.H
		popH, ackH       hist.H
		t                tally
		aband            atomic.Uint64
	)
	mode := "closed"
	consume := func(*xrand.Rand) {
		t0 := time.Now()
		_, _, _, err := cl.DeleteMin()
		t.done(&deleteH, t0, err)
	}
	if *lease {
		// A granted lease is acked immediately (two timed round trips)
		// unless the abandon draw elects it a simulated consumer crash, in
		// which case nobody acks and the server's expiry sweep must
		// redeliver it. Ack hitting ErrNoLease counts as an error: with the
		// TTLs this generator is meant for, a live consumer should never
		// lose a race with expiry.
		mode = "lease"
		consume = func(r *xrand.Rand) {
			t0 := time.Now()
			l, found, err := cl.PopLease(*leaseTTL)
			t.done(&popH, t0, err)
			if err != nil || !found {
				return
			}
			if r.Bool(*abandon) {
				aband.Add(1) // simulated crash: the lease dies unacked
				return
			}
			t1 := time.Now()
			t.done(&ackH, t1, l.Ack())
		}
	}
	start := time.Now()
	if *rate > 0 {
		mode = "open"
		runOpen(cl, *rate, *duration, *mix, keys, *seed, value, &insertH, &deleteH, &t)
	} else {
		runClosed(cl, *workers, *duration, *mix, keys, *seed, value, &insertH, &t, consume)
	}
	elapsed := time.Since(start)

	finalLen, lenErr := cl.Len()
	if lenErr != nil {
		fmt.Fprintf(stderr, "pqload: final Len: %v\n", lenErr)
	}

	ops, errs := t.ops.Load(), t.errs.Load()
	fmt.Fprintf(stdout, "pqload: mode=%s ops=%d errors=%d elapsed=%v throughput=%.0f ops/s final_len=%d\n",
		mode, ops, errs, elapsed.Round(time.Millisecond), float64(ops)/elapsed.Seconds(), finalLen)
	fmt.Fprintf(stdout, "  insert:    %s\n", insertH.Summary())
	if *lease {
		fmt.Fprintf(stdout, "  poplease:  %s\n", popH.Summary())
		fmt.Fprintf(stdout, "  ack:       %s (abandoned %d leases)\n", ackH.Summary(), aband.Load())
	} else {
		fmt.Fprintf(stdout, "  deletemin: %s\n", deleteH.Summary())
	}

	if *traceOut != "" {
		d := tracer.Snapshot()
		data, err := json.MarshalIndent(d, "", "  ")
		if err == nil {
			err = os.WriteFile(*traceOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pqload: writing %s: %v\n", *traceOut, err)
			return 1
		}
		fmt.Fprintf(stdout, "pqload: wrote %s (%d trace events, %d overwritten)\n",
			*traceOut, len(d.Events), d.Written-uint64(len(d.Events)))
	}

	if errs > 0 || lenErr != nil {
		return 1
	}
	return 0
}

// runClosed saturates the server: each worker issues its next op as soon as
// the previous completes — an Insert with probability mix, otherwise one
// consume step (DeleteMin, or PopLease + Ack under -lease). The per-op
// bookkeeping is deliberately lean — xrand draws and a deadline check
// every few ops — so at coalesced throughput the generator measures the
// server, not itself.
func runClosed(cl *client.Client, workers int, d time.Duration, mix float64,
	keys uint64, seed int64, value []byte,
	insertH *hist.H, t *tally, consume func(*xrand.Rand)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := xrand.NewRand(uint64(seed) + uint64(w)*0x9e3779b97f4a7c15)
			for i := 0; ; i++ {
				if i%16 == 0 && !time.Now().Before(deadline) {
					return
				}
				if r.Bool(mix) {
					t0 := time.Now()
					t.done(insertH, t0, cl.Insert(int64(r.Uint64n(keys)), value))
				} else {
					consume(r)
				}
			}
		}(w)
	}
	wg.Wait()
}

// runOpen dispatches ops on a fixed schedule and measures latency from the
// scheduled time, so a slow server accumulates visible queueing delay.
func runOpen(cl *client.Client, rate int, d time.Duration, mix float64,
	keys uint64, seed int64, value []byte,
	insertH, deleteH *hist.H, t *tally) {
	interval := time.Second / time.Duration(rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	deadline := time.Now().Add(d)
	rng := xrand.NewRand(uint64(seed))
	var wg sync.WaitGroup
	next := time.Now()
	for time.Now().Before(deadline) {
		if wait := time.Until(next); wait > 0 {
			time.Sleep(wait)
		}
		scheduled := next
		next = next.Add(interval)
		isInsert := rng.Bool(mix)
		prio := int64(rng.Uint64n(keys))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				p   *client.Pending
				err error
			)
			if isInsert {
				p, err = cl.InsertAsync(prio, value)
			} else {
				p, err = cl.DeleteMinAsync()
			}
			if err == nil {
				_, err = p.Wait()
			}
			h := deleteH
			if isInsert {
				h = insertH
			}
			t.done(h, scheduled, err)
		}()
	}
	wg.Wait()
}
