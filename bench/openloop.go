package main

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"skipqueue/internal/client"
)

// pending is an operation in flight; *client.Pending is one.
type pending interface {
	Wait() (client.Result, error)
}

// asyncSink is what the open-loop dispatcher issues into: the batched
// client in a run, a stalling fake in the generator's test.
type asyncSink interface {
	insertAsync(priority int64, value []byte) (pending, error)
	deleteMinAsync() (pending, error)
}

type clientSink struct{ cl *client.Client }

func (s clientSink) insertAsync(p int64, v []byte) (pending, error) { return s.cl.InsertAsync(p, v) }
func (s clientSink) deleteMinAsync() (pending, error)               { return s.cl.DeleteMinAsync() }

// openLoop issues a fixed schedule: operation i is due at i/rate after the
// start, whatever the system does. One dispatcher goroutine issues every
// operation in order, never skips one, and sleeps only when it is ahead of
// the schedule. One reaper per connection waits for completions in issue
// order. Latency runs from an operation's due time, not from when it was
// sent, so a stall is charged to every operation that was due during it.
type openLoop struct {
	sink       asyncSink
	rate       int
	warmupOps  int // issued first, excluded from every timing
	ops        int // measured operations
	reapers    int // one per connection
	window     int // the client's in-flight cap per connection
	late       time.Duration
	seed       uint64
	keyRange   int64
	valueBytes int
	gen        int // id generator of the dispatcher's inserts
	ids        *idset
	traced     bool
}

type openResult struct {
	lat, lag          []int64       // ns, measured operations only
	op                []int32       // op[k] is the measured operation lat[k] belongs to, counted from the window's start
	completed         int64         // measured operations that completed OK
	insDone, delDone  int64         // the same, by kind
	insIssued         int64         // inserts issued over the whole run
	failed, late      int64         // measured operations
	inserted, deleted int64         // OK over the whole run, warm-up included
	lastDone          time.Duration // since t0, of the last measured operation to complete
	firstErr          error
	recs              []*spanRec
}

// slices cuts the window into n equal parts by due time and returns each
// part's latencies, sorted, and how many operations completed in it.
func (r *openResult) slices(l *openLoop, n int) (lat [][]int64, done []float64) {
	lat, done = make([][]int64, n), make([]float64, n)
	for k, i := range r.op {
		s := int(int64(i) * int64(n) / int64(l.ops))
		lat[s] = append(lat[s], r.lat[k])
		done[s]++
	}
	for _, s := range lat {
		slices.Sort(s)
	}
	return lat, done
}

type inflight struct {
	p                    pending
	i                    int
	insert               bool
	due, issued, sentEnd time.Duration
}

// run executes the schedule on a clock that starts at t0: operation i is
// due at t0 + i/rate, and the measured window opens when the warm-up
// operations have fallen due.
func (l *openLoop) run(t0 time.Time) *openResult {
	total := l.warmupOps + l.ops
	res := &openResult{lag: make([]int64, 0, l.ops)}
	parts := make([]*openResult, l.reapers)
	chans := make([]chan inflight, l.reapers)
	var wg sync.WaitGroup
	for r := range chans {
		// The client holds at most window calls in flight per connection,
		// so a channel this deep never blocks the dispatcher before the
		// client itself would.
		chans[r] = make(chan inflight, l.window)
		parts[r] = &openResult{
			lat: make([]int64, 0, l.ops/l.reapers+1),
			op:  make([]int32, 0, l.ops/l.reapers+1),
		}
		wg.Add(1)
		go func(ch chan inflight, part *openResult) {
			defer wg.Done()
			l.reap(ch, part, t0)
		}(chans[r], parts[r])
	}

	// The dispatcher keeps its own thread for the sake of pause.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	rng := rand.New(rand.NewPCG(l.seed, uint64(l.gen)+1))
	var serial int64
	for i := 0; i < total; i++ {
		due := time.Duration(int64(i) * int64(time.Second) / int64(l.rate))
		if ahead := due - time.Since(t0); ahead > 0 {
			pause(ahead)
		}
		f := inflight{i: i, due: due, insert: rng.Uint64()&1 == 0, issued: time.Since(t0)}
		var err error
		if f.insert {
			v := make([]byte, l.valueBytes)
			putID(v, makeID(l.gen, serial))
			serial++
			f.p, err = l.sink.insertAsync(rng.Int64N(l.keyRange), v)
		} else {
			f.p, err = l.sink.deleteMinAsync()
		}
		f.sentEnd = time.Since(t0)
		if i >= l.warmupOps {
			res.lag = append(res.lag, int64(f.issued-due))
		}
		if err != nil {
			if i >= l.warmupOps {
				res.failed++
			}
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		chans[i%l.reapers] <- f
	}
	res.insIssued = serial
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	for _, p := range parts {
		res.lat = append(res.lat, p.lat...)
		res.op = append(res.op, p.op...)
		res.completed += p.completed
		res.insDone += p.insDone
		res.delDone += p.delDone
		res.failed += p.failed
		res.late += p.late
		res.inserted += p.inserted
		res.deleted += p.deleted
		res.lastDone = max(res.lastDone, p.lastDone)
		res.recs = append(res.recs, p.recs...)
		if res.firstErr == nil {
			res.firstErr = p.firstErr
		}
	}
	return res
}

// pause sleeps in the kernel. time.Sleep will not do: an otherwise idle Go
// process waits for its timers in epoll_wait, whose timeout counts whole
// milliseconds, so a 25 us sleep returns after up to 1 ms and the
// schedule would go out in millisecond bursts.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // woken early by a signal: the caller looks at the clock again
}

// reap waits for one connection's operations in the order they were issued.
func (l *openLoop) reap(ch chan inflight, part *openResult, t0 time.Time) {
	var sp *spanRec
	if l.traced {
		sp = newSpanRec(0)
	}
	for f := range ch {
		waitStart := time.Since(t0)
		r, err := f.p.Wait()
		done := time.Since(t0)
		if err == nil && !f.insert && !r.Found {
			err = errors.New("DeleteMin found the queue empty")
		}
		measured := f.i >= l.warmupOps
		if err != nil {
			if measured {
				part.failed++
			}
			if part.firstErr == nil {
				part.firstErr = err
			}
			continue
		}
		if f.insert {
			part.inserted++
		} else {
			part.deleted++
			l.ids.deliver(r.Value)
		}
		if !measured {
			continue
		}
		part.completed++
		part.lastDone = done
		if f.insert {
			part.insDone++
		} else {
			part.delDone++
		}
		part.lat = append(part.lat, int64(done-f.due))
		part.op = append(part.op, int32(f.i-l.warmupOps))
		if done-f.due > l.late {
			part.late++
		}
		root := sp.open("op", "bench", -1, uint64(f.i), int64(f.due))
		sp.close(sp.open("submit", "client", root, uint64(f.i), int64(f.issued)), int64(f.sentEnd))
		sp.close(sp.open("wait", "client", root, uint64(f.i), int64(waitStart)), int64(done))
		sp.close(root, int64(done))
	}
	if sp != nil {
		part.recs = append(part.recs, sp)
	}
}
