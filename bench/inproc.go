package main

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"skipqueue"
)

// The in-process workloads drive skipqueue.NewPQ[[]byte](), the strict
// SkipQueue behind pqd's default backend, from 2 goroutines. Values are
// allocated by the generator, one per Push, so allocs_per_op includes that
// one allocation; it is constant and does not hide a change in the queue.

// inprocLatCap bounds a goroutine's sample store. The store is sized to
// what the run can produce, because the collector paces itself by the
// live heap and a large idle store would change the memory under test; a
// traced run times every op and may fill it, which the report then says.
const inprocLatCap = 1 << 23

func inprocLatSize(o runOpts, every int) int {
	perSecond := 2e6 / float64(every) // no goroutine does 2M ops/s here
	return min(int((o.spec.WarmupS+o.seconds)*perSecond), inprocLatCap)
}

// setupInproc builds the queue and prefills it, prefill_goroutines
// goroutines each pushing an equal share: one for a small prefill, whose
// time would otherwise be mostly the goroutines' start-up.
func setupInproc(w workloadSpec, seed uint64, gen int) *skipqueue.PQ[[]byte] {
	q := skipqueue.NewPQ[[]byte]()
	var wg sync.WaitGroup
	for g := 0; g < w.PrefillGs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(1000+g)))
			for i := g; i < w.Prefill; i += w.PrefillGs {
				v := make([]byte, w.ValueBytes)
				putID(v, makeID(gen, int64(i)))
				q.Push(rng.Int64N(w.KeyRange), v)
			}
		}(g)
	}
	wg.Wait()
	return q
}

// setupSpacing is the least time from one repeated set-up to the next: a
// millisecond set-up repeated back to back would sample one instant of the
// box's wandering speed fifty times over.
const setupSpacing = 20 * time.Millisecond

// moreSetups repeats the set-up after the measurement and after the peak
// memory was read, so that the peak belongs to one queue only.
func moreSetups(o runOpts, first float64) float64 {
	times := []float64{first}
	for i := 1; i < o.setups; i++ {
		runtime.GC()
		t := time.Now()
		setupInproc(o.w, o.seed, o.w.Goroutines)
		times = append(times, time.Since(t).Seconds())
		time.Sleep(setupSpacing - time.Since(t))
	}
	return median(times)
}

// opTrace times calls for one worker: one call in every, or all of them
// in a traced run, where each call also becomes a span under a root span
// covering a block of 64 operations.
type opTrace struct {
	ck    clock
	lat   *samples
	sp    *spanRec
	every int
	block int32
}

func newOpTrace(o runOpts, ck clock) *opTrace {
	t := &opTrace{ck: ck, every: o.w.SampleEvery, block: -1}
	if o.traced {
		t.every = 1
		t.sp = newSpanRec(o.warmup())
	}
	t.lat = newSamples(inprocLatSize(o, t.every))
	return t
}

// startBlock closes the current root span and opens the next.
func (t *opTrace) startBlock(i int) {
	if t.sp != nil && i&63 == 0 {
		now := t.ck.now()
		t.sp.close(t.block, now)
		t.block = t.sp.open("block", "bench", -1, uint64(i), now)
	}
}

func (t *opTrace) record(name string, i int, start, end int64) {
	t.lat.add(end - start)
	if t.block >= 0 {
		t.sp.close(t.sp.open(name, "adapter", t.block, uint64(i), start), end)
	}
}

func runInprocMixed(o runOpts) (*measured, error) {
	w := o.w
	m := newMeasured()
	prefillGen := w.Goroutines

	t := time.Now()
	q := setupInproc(w, o.seed, prefillGen)
	firstSetup := time.Since(t).Seconds()

	perGen := int64((o.spec.WarmupS+o.seconds)*2e6) + int64(w.Prefill)
	ids := newIDSet(w.Goroutines+1, perGen)
	ck := clock{time.Now()}
	recs := make([]*sliceRec, w.Goroutines)
	traces := make([]*opTrace, w.Goroutines)
	pushed := make([]int64, w.Goroutines+1)
	popped := make([]int64, w.Goroutines)
	pushed[prefillGen] = int64(w.Prefill)

	var wg sync.WaitGroup
	for g := 0; g < w.Goroutines; g++ {
		recs[g] = newSliceRec(o.warmup(), o.length(), o.spec.Slices)
		traces[g] = newOpTrace(o, ck)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pushed[g], popped[g] = mixedWorker(q, o, g, recs[g], traces[g], ids)
		}(g)
	}
	// The coordinator reads the process counters at both ends of the
	// window and the CPU time at every slice boundary, and is asleep in
	// between.
	time.Sleep(time.Until(ck.base.Add(o.warmup())))
	a := takeSelf()
	cpu, _ := watchCPU(ck.base, o.warmup(), o.step(), o.spec.Slices, func() (time.Duration, error) { return selfCPU().total(), nil })
	b := takeSelf()
	wg.Wait()

	ops, failed, ok := windowTotals(recs)
	if !ok {
		m.violate("a worker left the window early")
		return m, nil
	}
	m.attempted, m.failed = ops+failed, failed
	var stores []*samples
	var dropped int
	var spans []*spanRec
	for _, tr := range traces {
		stores = append(stores, tr.lat)
		dropped += tr.lat.dropped
		spans = append(spans, tr.sp)
	}
	m.setRates(recs, cpu, o)
	m.setLatency(sliceSamples(recs, stores), dropped, w)
	if o.traced {
		m.keepSpans(spans)
	}

	// Quiescent checks: conservation, then drain and require every id
	// inserted to have come out exactly once.
	var allPushed, allPopped int64
	for g := 0; g < w.Goroutines; g++ {
		allPushed += pushed[g]
		allPopped += popped[g]
	}
	if want := int64(w.Prefill) + allPushed - allPopped; int64(q.Len()) != want {
		m.violate("final Len %d, want prefill+pushes-pops = %d", q.Len(), want)
	}
	for {
		_, v, ok := q.Pop()
		if !ok {
			break
		}
		ids.deliver(v)
	}
	m.violations = append(m.violations, ids.check(pushed, true)...)

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	m.set("setup_s", moreSetups(o, firstSetup), o.setups)
	m.setSelfProcess(a, b, ops, rss, o.traced)
	return m, nil
}

// mixedWorker runs one goroutine's closed loop: Push or Pop by a fair
// coin, with the goroutine's own push-minus-pop balance held within the
// clamp so the depth stays near the prefill and no Pop finds the queue
// empty. The loop is untimed but for one op in every sample_every; it
// looks at the clock every 256 ops.
func mixedWorker(q *skipqueue.PQ[[]byte], o runOpts, g int, rec *sliceRec, tr *opTrace, ids *idset) (pushed, popped int64) {
	w := o.w
	rng := rand.New(rand.NewPCG(o.seed, uint64(g)+1))
	var c counters
	bal := 0
	corrupt := o.corruptCheck && g == 0
	for i := 0; ; i++ {
		if i&255 == 0 {
			c.nlat = int64(len(tr.lat.v))
			if !rec.tick(tr.ck.now(), c) {
				return pushed, popped
			}
		}
		tr.startBlock(i)
		push := rng.Uint64()&1 == 0
		if bal >= w.BalanceClamp {
			push = false
		} else if bal <= -w.BalanceClamp {
			push = true
		}
		timed := i%tr.every == 0
		if push {
			v := make([]byte, w.ValueBytes)
			putID(v, makeID(g, pushed))
			prio := rng.Int64N(w.KeyRange)
			if timed {
				t0 := tr.ck.now()
				q.Push(prio, v)
				tr.record("Push", i, t0, tr.ck.now())
			} else {
				q.Push(prio, v)
			}
			pushed++
			bal++
			c.ins++
			c.ops++
			continue
		}
		var v []byte
		var ok bool
		if timed {
			t0 := tr.ck.now()
			_, v, ok = q.Pop()
			tr.record("Pop", i, t0, tr.ck.now())
		} else {
			_, v, ok = q.Pop()
		}
		bal--
		if !ok {
			c.failed++
			continue
		}
		popped++
		ids.deliver(v)
		if corrupt {
			ids.deliver(v)
			corrupt = false
		}
		c.del++
		c.ops++
	}
}

func runInprocFillDrain(o runOpts) (*measured, error) {
	w := o.w
	m := newMeasured()
	prefillGen := w.Goroutines

	t := time.Now()
	q := setupInproc(w, o.seed, prefillGen)
	firstSetup := time.Since(t).Seconds()

	perGen := int64((o.spec.WarmupS+o.seconds)*2e6) + int64(w.Prefill)
	ids := newIDSet(w.Goroutines+1, perGen)
	ck := clock{time.Now()}
	traces := make([]*opTrace, w.Goroutines)
	rngs := make([]*rand.Rand, w.Goroutines)
	for g := range traces {
		traces[g] = newOpTrace(o, ck)
		rngs[g] = rand.New(rand.NewPCG(o.seed, uint64(g)+1))
	}
	pushed := make([]int64, w.Goroutines+1)
	pushed[prefillGen] = int64(w.Prefill)
	disorder := make([]int64, w.Goroutines)

	// phase runs every goroutine through phase_ops calls of one kind and
	// returns the wall time until the last one is done.
	phase := func(fill bool) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < w.Goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if fill {
					pushed[g] = fillWorker(q, w, g, rngs[g], traces[g], pushed[g])
				} else {
					disorder[g] += drainWorker(q, w, traces[g], ids)
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}

	var a *selfSample
	var fills, drains, cycles, cpuPer []float64
	var perCycle [][]int64 // each measured cycle's latency samples, sorted
	t0, end := int64(o.warmup()), int64(o.warmup()+o.length())
	phaseOps := float64(w.Goroutines * w.PhaseOps)
	for ck.now() < end {
		if a == nil && ck.now() >= t0 {
			a = takeSelf() // warm-up cycles before this are discarded
		}
		for _, tr := range traces {
			tr.lat.v = tr.lat.v[:0]
		}
		cpu0 := selfCPU()
		f := phase(true).Seconds()
		d := phase(false).Seconds()
		cpu1 := selfCPU()
		if q.Len() != w.Prefill {
			m.violate("Len %d after a cycle, want %d", q.Len(), w.Prefill)
		}
		if a != nil {
			fills = append(fills, phaseOps/f)
			drains = append(drains, phaseOps/d)
			cycles = append(cycles, 2*phaseOps/(f+d))
			cpuPer = append(cpuPer, float64(cpu1.sub(cpu0).total().Nanoseconds())/1e3/(2*phaseOps))
			parts := make([][]int64, len(traces))
			for g, tr := range traces {
				parts[g] = tr.lat.v
			}
			perCycle = append(perCycle, pool(parts...))
		}
	}
	if a == nil {
		m.violate("no cycle started inside the window")
		return m, nil
	}
	b := takeSelf()

	ops := int64(len(cycles)) * int64(2*phaseOps)
	m.attempted = ops
	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	q = nil // the repeated set-ups build their own
	m.set("setup_s", moreSetups(o, firstSetup), o.setups)
	// Each is a median over the window's cycles.
	m.set("ops_per_s", median(cycles), len(cycles))
	m.set("insert_ops_per_s", median(fills), len(fills))
	m.set("deletemin_ops_per_s", median(drains), len(drains))
	m.set("cpu_us_per_op", median(cpuPer), len(cpuPer))
	var dropped int
	var spans []*spanRec
	for _, tr := range traces {
		dropped += tr.lat.dropped
		spans = append(spans, tr.sp)
	}
	m.setLatency(perCycle, dropped, w)
	if o.traced {
		m.keepSpans(spans)
	}
	for g, n := range disorder {
		if n != 0 {
			m.violate("goroutine %d: %d pops of a drain were empty or below an earlier one", g, n)
		}
	}
	m.violations = append(m.violations, ids.check(pushed, false)...)
	m.setSelfProcess(a, b, ops, rss, o.traced)
	return m, nil
}

// fillWorker pushes phase_ops elements with ids from serial on and returns
// the next unused serial.
func fillWorker(q *skipqueue.PQ[[]byte], w workloadSpec, g int, rng *rand.Rand, tr *opTrace, serial int64) int64 {
	for i := 0; i < w.PhaseOps; i++ {
		tr.startBlock(i)
		v := make([]byte, w.ValueBytes)
		putID(v, makeID(g, serial))
		prio := rng.Int64N(w.KeyRange)
		if i%tr.every == 0 {
			t0 := tr.ck.now()
			q.Push(prio, v)
			tr.record("Push", i, t0, tr.ck.now())
		} else {
			q.Push(prio, v)
		}
		serial++
	}
	return serial
}

// drainWorker pops phase_ops elements and returns how many came out
// below an earlier one: with no insert running, a strict queue hands each
// goroutine non-decreasing priorities.
func drainWorker(q *skipqueue.PQ[[]byte], w workloadSpec, tr *opTrace, ids *idset) (disorder int64) {
	last := int64(-1 << 63)
	for i := 0; i < w.PhaseOps; i++ {
		tr.startBlock(i)
		var prio int64
		var v []byte
		var ok bool
		if i%tr.every == 0 {
			t0 := tr.ck.now()
			prio, v, ok = q.Pop()
			tr.record("Pop", i, t0, tr.ck.now())
		} else {
			prio, v, ok = q.Pop()
		}
		if !ok || prio < last {
			disorder++
			continue
		}
		last = prio
		ids.deliver(v)
	}
	return disorder
}
