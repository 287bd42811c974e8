package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"skipqueue/internal/client"
)

// netLatCap holds every round trip of one goroutine at loopback rates
// (tens of thousands per second) for a window of up to a minute.
const netLatCap = 1 << 21

// pqdUnderTest is a daemon with a dialled client.
type pqdUnderTest struct {
	d  *daemon
	cl *client.Client
}

func (p *pqdUnderTest) closeAndKill() {
	if p.cl != nil {
		p.cl.Close()
	}
	p.d.kill()
}

// startNetSingle is the workload's set-up: a fresh pqd without WAL, admin
// or flight, a 2-connection unbatched client, and the prefill, one
// synchronous Insert at a time.
func startNetSingle(o runOpts, gen int) (*pqdUnderTest, error) {
	w := o.w
	args := []string{"-addr", "127.0.0.1:0", "-backend", "skipqueue", "-lease", "-lease-ttl", w.LeaseTTL}
	if o.traced {
		args = append(args, "-admin", "127.0.0.1:0")
	}
	d, err := startDaemon(o.env.pqd, args...)
	if err != nil {
		return nil, err
	}
	cl, err := client.Dial(client.Config{Addr: d.addr, Conns: w.Conns})
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("dial pqd: %w", err)
	}
	p := &pqdUnderTest{d, cl}
	rng := rand.New(rand.NewPCG(o.seed, 0))
	for i := 0; i < w.Prefill; i++ {
		v := make([]byte, w.ValueBytes)
		putID(v, makeID(gen, int64(i)))
		if err := cl.Insert(rng.Int64N(w.KeyRange), v); err != nil {
			p.closeAndKill()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	return p, nil
}

func runNetSingle(o runOpts) (*measured, error) {
	w := o.w
	m := newMeasured()
	prefillGen := w.Goroutines

	// Every set-up but the last is torn down again at once; the last one
	// is measured.
	var p *pqdUnderTest
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if p != nil {
			p.cl.Close()
			if err := p.d.term(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if p, err = startNetSingle(o, prefillGen); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer p.closeAndKill()
	m.set("setup_s", median(setups), len(setups))

	perGen := int64((o.spec.WarmupS+o.seconds)*1e5) + int64(w.Prefill)
	ids := newIDSet(w.Goroutines+1, perGen)
	ck := clock{time.Now()}
	recs := make([]*sliceRec, w.Goroutines)
	workers := make([]*singleWorker, w.Goroutines)
	var wg sync.WaitGroup
	for g := range workers {
		recs[g] = newSliceRec(o.warmup(), o.length(), o.spec.Slices)
		workers[g] = &singleWorker{
			o: o, g: g, cl: p.cl, ck: ck, rec: recs[g], ids: ids,
			rtt: newSamples(netLatCap),
		}
		if o.traced {
			workers[g].sp = newSpanRec(o.warmup())
		}
		wg.Add(1)
		go func(sw *singleWorker) {
			defer wg.Done()
			sw.run()
		}(workers[g])
	}
	time.Sleep(time.Until(ck.base.Add(o.warmup())))
	a, err := sampleServer(p.d, o.traced)
	if err != nil {
		return nil, err
	}
	cpu, err := watchCPU(ck.base, o.warmup(), o.step(), o.spec.Slices, func() (time.Duration, error) { return procRunTime(p.d.pid()) })
	if err != nil {
		return nil, err
	}
	b, err := sampleServer(p.d, o.traced)
	if err != nil {
		return nil, err
	}
	wg.Wait()

	ops, failed, ok := windowTotals(recs)
	if !ok {
		m.violate("a worker left the window early")
		return m, nil
	}
	m.attempted, m.failed = ops+failed, failed
	var inserted, removed int64
	pushed := make([]int64, w.Goroutines+1)
	pushed[prefillGen] = int64(w.Prefill)
	var stores []*samples
	var dropped int
	var spans []*spanRec
	for g, sw := range workers {
		if sw.err != nil {
			m.violate("worker %d: %v", g, sw.err)
		}
		inserted += sw.inserted
		removed += sw.removed
		pushed[g] = sw.inserted
		stores = append(stores, sw.rtt)
		dropped += sw.rtt.dropped
		spans = append(spans, sw.sp)
	}
	m.setRates(recs, cpu, o)
	m.setLatency(sliceSamples(recs, stores), dropped, w)
	m.setServerProcess(a, b, ops, o.traced)
	if o.traced {
		m.keepSpans(spans)
	}

	// Quiescent checks.
	n, err := p.cl.Len()
	if err != nil {
		m.violate("final Len: %v", err)
	} else if want := int64(w.Prefill) + inserted - removed; int64(n) != want {
		m.violate("final Len %d, want prefill+inserts-removals = %d", n, want)
	}
	m.violations = append(m.violations, ids.check(pushed, false)...)
	rss, err := peakRSSMB(p.d.pid())
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, 0)
	p.cl.Close()
	p.cl = nil
	if err := p.d.term(); err != nil {
		m.violate("%v", err)
	}
	return m, nil
}

// singleWorker is one goroutine's closed loop of synchronous calls:
// Insert, Insert, DeleteMin, PopLease, Ack, so that two elements go in and
// two come out per cycle and the depth stays at the prefill.
type singleWorker struct {
	o   runOpts
	g   int
	cl  *client.Client
	ck  clock
	rec *sliceRec
	ids *idset
	sp  *spanRec

	rtt *samples // Insert and DeleteMin round trips

	inserted, removed int64
	err               error // first call error, for the report
}

func (sw *singleWorker) run() {
	w := sw.o.w
	rng := rand.New(rand.NewPCG(sw.o.seed, uint64(sw.g)+1))
	var c counters
	fail := func(err error) {
		c.failed++
		if sw.err == nil {
			sw.err = err
		}
	}
	// call times one round trip as a span under the cycle's root span.
	call := func(name string, root int32, op uint64, f func() error) (start, end int64, err error) {
		start = sw.ck.now()
		err = f()
		end = sw.ck.now()
		if root >= 0 {
			sw.sp.close(sw.sp.open(name, "client", root, op, start), end)
		}
		return start, end, err
	}
	insert := func(root int32, op uint64) {
		v := make([]byte, w.ValueBytes)
		putID(v, makeID(sw.g, sw.inserted))
		prio := rng.Int64N(w.KeyRange)
		start, end, err := call("Insert", root, op, func() error { return sw.cl.Insert(prio, v) })
		if err != nil {
			fail(err)
			return
		}
		sw.inserted++
		sw.rtt.add(end - start)
		c.ins++
		c.ops++
	}
	for op := uint64(0); ; op++ {
		now := sw.ck.now()
		c.nlat = int64(len(sw.rtt.v))
		if !sw.rec.tick(now, c) {
			return
		}
		root := sw.sp.open("cycle", "bench", -1, op, now)
		insert(root, op)
		insert(root, op)

		var val []byte
		var found bool
		start, end, err := call("DeleteMin", root, op, func() (err error) {
			_, val, found, err = sw.cl.DeleteMin()
			return err
		})
		if err == nil && !found {
			err = errors.New("DeleteMin found the queue empty")
		}
		if err != nil {
			fail(err)
		} else {
			sw.removed++
			sw.ids.deliver(val)
			sw.rtt.add(end - start)
			c.del++
			c.ops++
		}

		var lease *client.Lease
		_, _, err = call("PopLease", root, op, func() (err error) {
			lease, found, err = sw.cl.PopLease(0)
			return err
		})
		if err == nil && !found {
			err = errors.New("PopLease found the queue empty")
		}
		if err != nil {
			fail(err)
		} else {
			sw.removed++
			sw.ids.deliver(lease.Value)
			c.del++
			c.ops++
			// An Ack that fails (ErrNoLease included) is a failed op:
			// with a 30 s lease nothing may expire.
			if _, _, err = call("Ack", root, op, lease.Ack); err != nil {
				fail(err)
			} else {
				c.ops++
			}
		}
		sw.sp.close(root, sw.ck.now())
	}
}
