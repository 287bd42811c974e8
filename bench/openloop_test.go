package main

import (
	"slices"
	"testing"
	"time"

	"skipqueue/internal/client"
)

// stallSink is a fake server: a bounded queue of calls (the client's
// window) served in order by one goroutine, which stops once for the stall
// duration when it reaches call stallAt. While the queue is full, issuing
// blocks, as it does on a real client whose window is full.
type stallSink struct {
	calls   chan *fakeCall
	stallAt int
	stall   time.Duration

	// Written by the server goroutine, read after it has exited.
	stallStart, stallEnd time.Time
	served               int
}

type fakeCall struct {
	insert bool
	done   chan struct{}
}

func (c *fakeCall) Wait() (client.Result, error) {
	<-c.done
	return client.Result{Found: true, Value: make([]byte, 16)}, nil
}

func newStallSink(window, stallAt int, stall time.Duration) *stallSink {
	return &stallSink{calls: make(chan *fakeCall, window), stallAt: stallAt, stall: stall}
}

func (s *stallSink) serve(finished chan<- struct{}) {
	for c := range s.calls {
		if s.served == s.stallAt {
			s.stallStart = time.Now()
			time.Sleep(s.stall)
			s.stallEnd = time.Now()
		}
		s.served++
		close(c.done)
	}
	close(finished)
}

func (s *stallSink) submit(insert bool) (pending, error) {
	c := &fakeCall{insert: insert, done: make(chan struct{})}
	s.calls <- c
	return c, nil
}

func (s *stallSink) insertAsync(int64, []byte) (pending, error) { return s.submit(true) }
func (s *stallSink) deleteMinAsync() (pending, error)           { return s.submit(false) }

// A 50 ms stall of the sink must show in the latency of every operation
// that was due during it, measured from its due time: the dispatcher was
// blocked for most of the stall and issued those operations late, but
// none is skipped and none is timed from when it was finally sent.
func TestOpenLoopChargesAStallToEveryOpDueDuringIt(t *testing.T) {
	const (
		rate  = 10000
		ops   = 4000 // 0.4 s
		stall = 50 * time.Millisecond
	)
	sink := newStallSink(64, 1500, stall)
	finished := make(chan struct{})
	go sink.serve(finished)

	loop := &openLoop{
		sink: sink, rate: rate, warmupOps: 0, ops: ops, reapers: 2, window: 64,
		late: 10 * time.Millisecond, seed: 1, keyRange: 1 << 20, valueBytes: 16,
		gen: 0, ids: newIDSet(1, 1), // the fake's values carry no ids worth checking
	}
	start := time.Now()
	res := loop.run(start)
	close(sink.calls)
	<-finished

	if sink.served != ops {
		t.Fatalf("sink served %d operations, want %d: the dispatcher skipped some", sink.served, ops)
	}
	if got := res.completed + res.failed; got != ops {
		t.Fatalf("%d operations completed or failed, want %d", got, ops)
	}
	if len(res.lat) != ops || len(res.lag) != ops {
		t.Fatalf("%d latencies and %d lags, want %d each", len(res.lat), len(res.lag), ops)
	}

	// Operation i was due at i/rate, and one due inside the stall cannot
	// have completed before the stall's end, so its latency from its due
	// time is at least what was left of the stall.
	lat := make([]time.Duration, ops)
	for k, i := range res.op {
		lat[i] = time.Duration(res.lat[k])
	}
	latOf := func(i int) time.Duration { return lat[i] }
	stallFrom, stallTo := sink.stallStart.Sub(start), sink.stallEnd.Sub(start)
	slack := time.Millisecond // clock reads on either side of the stall
	dueInStall := 0
	for i := 0; i < ops; i++ {
		due := time.Duration(i) * time.Second / rate
		if due < stallFrom+slack || due >= stallTo-slack {
			continue
		}
		dueInStall++
		if got, least := latOf(i), stallTo-due-slack; got < least {
			t.Fatalf("operation %d, due %v into a stall ending at %v, shows latency %v, below %v: coordinated omission",
				i, due, stallTo, got, least)
		}
	}
	if dueInStall < int(float64(rate)*stall.Seconds()*0.8) {
		t.Fatalf("only %d operations were due during the stall; the test did not exercise it", dueInStall)
	}
	if res.late < int64(dueInStall)*7/10 {
		t.Errorf("late operations %d, want most of the %d that were due during a 50 ms stall (limit 10 ms)", res.late, dueInStall)
	}

	// With a 64-call window the dispatcher is blocked for nearly the
	// whole stall, and its lag reports that.
	slices.Sort(res.lag)
	lag, _ := quantile(res.lag, 0.99)
	if time.Duration(lag) < stall/2 {
		t.Errorf("gen lag p99 = %v, want at least half the %v stall", time.Duration(lag), stall)
	}
}
