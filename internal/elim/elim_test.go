package elim

import (
	"sync"
	"testing"
	"time"

	"skipqueue/internal/core"
	"skipqueue/internal/lincheck"
)

// strictBackend adapts a strict core.Queue to the multiset.Queue surface. Keys
// double as values so tests can assert the exchanged payload.
type strictBackend struct{ q *core.Queue[int64, int64] }

func (b strictBackend) Push(k int64, v int64)      { b.q.Insert(k, v) }
func (b strictBackend) Pop() (int64, int64, bool)  { return b.q.DeleteMin() }
func (b strictBackend) Peek() (int64, int64, bool) { return b.q.PeekMin() }
func (b strictBackend) Len() int                   { return b.q.Len() }

func newStrict(seed uint64) (strictBackend, *core.Queue[int64, int64]) {
	q := core.New[int64, int64](core.Config{Seed: seed})
	return strictBackend{q}, q
}

// TestPublishClaimCollect walks the slot protocol single-threaded:
// publish -> claim -> the publisher collects its hand-off, checking phases,
// payload, and counters. The claimer completes the exchange, so the hit is
// counted once, at the claim, and the publisher leaves the slot as it finds
// it: phaseTaken is free to republish.
func TestPublishClaimCollect(t *testing.T) {
	inner, _ := newStrict(1)
	p := New[int64](inner, Config{Slots: 2})

	s, ver := p.publish(5, 50)
	if s == nil {
		t.Fatal("publish found no empty slot in a fresh array")
	}
	if ph := phaseOf(s.state.Load()); ph != phaseWaiting {
		t.Fatalf("published slot phase = %d, want waiting", ph)
	}

	k, v, hit := p.tryExchangePop(0)
	if !hit || k != 5 || v != 50 {
		t.Fatalf("claim = (%d, %d, %v), want (5, 50, true)", k, v, hit)
	}
	if ph := phaseOf(s.state.Load()); ph != phaseTaken {
		t.Fatalf("claimed slot phase = %d, want taken", ph)
	}
	if got := p.ObsSnapshot().Counter("exchange.hits"); got != 1 {
		t.Fatalf("exchange.hits after the claim = %d, want 1", got)
	}

	if !p.await(s, ver) {
		t.Fatal("publisher did not see its offer consumed")
	}
	if ph := phaseOf(s.state.Load()); ph != phaseTaken {
		t.Fatalf("collected slot phase = %d, want taken (free)", ph)
	}
	snap := p.ObsSnapshot()
	if got := snap.Counter("exchange.hits"); got != 1 {
		t.Fatalf("exchange.hits = %d, want 1", got)
	}
	if got := snap.Counter("publish.timeouts"); got != 0 {
		t.Fatalf("publish.timeouts = %d, want 0", got)
	}
}

// TestTracedRecycleReportsHandOff: with a tracer installed, a claimed slot
// is republished by a second publish before its first publisher looks. The
// first publisher must still report the hand-off (its version moved on),
// the second offer must stay waiting, and the claimer alone must have
// traced the exchange: one insert half and one delete half, stamped insert
// < delete < the insert's Done.
func TestTracedRecycleReportsHandOff(t *testing.T) {
	inner, q := newStrict(1)
	p := New[int64](inner, Config{Slots: 1, Timeout: time.Millisecond})
	var history []Event
	p.SetTracer(func(e Event) { history = append(history, e) }, q.Now)

	s, ver := p.publish(5, 50)
	if s == nil {
		t.Fatal("publish found no empty slot in a fresh array")
	}
	seq := s.seq
	if k, v, hit := p.tryExchangePop(q.Now()); !hit || k != 5 || v != 50 {
		t.Fatalf("claim = (%d, %d, %v), want (5, 50, true)", k, v, hit)
	}
	if got, _ := p.publish(9, 90); got != s {
		t.Fatal("a claimed slot was not republished with Slots=1")
	}

	if !p.await(s, ver) {
		t.Fatal("first publisher missed its hand-off after the slot was recycled")
	}
	if st := s.state.Load(); phaseOf(st) != phaseWaiting || st>>phaseBits != ver+1 {
		t.Fatalf("second offer's state = (ver %d, phase %d), want (%d, waiting)",
			st>>phaseBits, phaseOf(st), ver+1)
	}
	if got := p.ObsSnapshot().Counter("exchange.hits"); got != 1 {
		t.Fatalf("exchange.hits = %d, want 1", got)
	}

	var ins, del []Event
	for _, e := range history {
		if e.Seq != seq || e.Priority != 5 || !e.OK {
			t.Fatalf("unexpected trace event %+v", e)
		}
		if e.Insert {
			ins = append(ins, e)
		} else {
			del = append(del, e)
		}
	}
	if len(ins) != 1 || len(del) != 1 {
		t.Fatalf("history holds %d insert and %d delete halves, want 1 and 1: %+v",
			len(ins), len(del), history)
	}
	if i, d := ins[0], del[0]; !(d.Start < i.Stamp && i.Stamp < d.Stamp && d.Stamp < i.Done) {
		t.Fatalf("stamps out of order: insert %+v, delete %+v", i, d)
	}
}

// TestClaimSkipsOffersAboveQueueMin: a waiting offer whose key exceeds the
// inner queue's minimum must not be exchanged — that is the Definition 1
// eligibility veto.
func TestClaimSkipsOffersAboveQueueMin(t *testing.T) {
	inner, _ := newStrict(1)
	p := New[int64](inner, Config{Slots: 2})
	inner.Push(1, 10)

	if s, _ := p.publish(7, 70); s == nil {
		t.Fatal("publish failed")
	}
	if _, _, hit := p.tryExchangePop(0); hit {
		t.Fatal("claimed an offer above the queue minimum")
	}
	if got := p.ObsSnapshot().Counter("pop.ineligible"); got != 1 {
		t.Fatalf("pop.ineligible = %d, want 1", got)
	}

	// A full Pop serves the queue minimum, leaving the offer waiting...
	if k, _, ok := p.Pop(); !ok || k != 1 {
		t.Fatalf("Pop = (%d, %v), want (1, true)", k, ok)
	}
	// ...and once the queue is empty the same offer becomes eligible.
	if k, v, ok := p.Pop(); !ok || k != 7 || v != 70 {
		t.Fatalf("Pop = (%d, %d, %v), want (7, 70, true)", k, v, ok)
	}
}

// peekCounter counts the inner Peeks the exchanger takes.
type peekCounter struct {
	strictBackend
	peeks int
}

func (b *peekCounter) Peek() (int64, int64, bool) {
	b.peeks++
	return b.strictBackend.Peek()
}

// TestPopPeeksOnlyAtAnOffer: a Pop peeks the inner queue only once its scan
// meets a waiting offer, and then once. A Pop with no offer waiting makes
// no inner Peek, whether the inner queue serves it or is empty.
func TestPopPeeksOnlyAtAnOffer(t *testing.T) {
	strict, _ := newStrict(1)
	inner := &peekCounter{strictBackend: strict}
	p := New[int64](inner, Config{Slots: 4})
	pop := func(maxPeeks int) (int64, bool) {
		t.Helper()
		before := inner.peeks
		k, _, ok := p.Pop()
		if got := inner.peeks - before; got > maxPeeks {
			t.Fatalf("Pop of (%d, %v) took %d inner Peeks, want at most %d", k, ok, got, maxPeeks)
		}
		return k, ok
	}

	inner.Push(1, 10)
	inner.Push(2, 20)
	if k, ok := pop(0); !ok || k != 1 { // no offer: the inner queue serves the Pop
		t.Fatalf("Pop = (%d, %v), want (1, true)", k, ok)
	}
	for _, k := range []int64{7, 9} {
		if s, _ := p.publish(k, 10*k); s == nil {
			t.Fatalf("publish(%d) failed", k)
		}
	}
	if k, ok := pop(1); !ok || k != 2 { // both offers exceed the minimum
		t.Fatalf("Pop = (%d, %v), want (2, true)", k, ok)
	}
	// The inner queue is empty, so each offer is eligible at its Pop.
	a, okA := pop(1)
	b, okB := pop(1)
	if !okA || !okB || !(a == 7 && b == 9 || a == 9 && b == 7) {
		t.Fatalf("Pops = (%d, %v), (%d, %v); want the offers 7 and 9", a, okA, b, okB)
	}
	if k, ok := pop(0); ok { // empty, no offer: neither scan peeks
		t.Fatalf("Pop = (%d, true) from an empty queue", k)
	}
	if inner.peeks != 3 {
		t.Fatalf("inner Peeks = %d over the five Pops, want 3", inner.peeks)
	}
}

// TestStaleClaimFailsAfterRepublish pins the ABA defence: a claim CAS built
// from a state word observed before a withdraw/republish cycle must fail,
// because every publication bumps the version in the state word.
func TestStaleClaimFailsAfterRepublish(t *testing.T) {
	inner, _ := newStrict(1)
	p := New[int64](inner, Config{Slots: 1})

	s, _ := p.publish(5, 50)
	stale := s.state.Load() // a consumer's view of the first offer

	// Publisher withdraws (timeout path) and republishes a different offer.
	if !s.state.CompareAndSwap(stale, pack(stale>>phaseBits, phasePublishing)) {
		t.Fatal("withdraw CAS failed single-threaded")
	}
	p.reset(s)
	if got, _ := p.publish(9, 90); got != s {
		t.Fatal("republish landed on a different slot with Slots=1")
	}

	// The stale claim must not land on the new offer.
	if s.state.CompareAndSwap(stale, pack(stale>>phaseBits, phaseClaimed)) {
		t.Fatal("stale claim CAS succeeded across a republication")
	}
	if k, v, hit := p.tryExchangePop(0); !hit || k != 9 || v != 90 {
		t.Fatalf("fresh claim = (%d, %d, %v), want (9, 90, true)", k, v, hit)
	}
}

// TestPushTimeoutFallsThrough: with no consumer, an eligible Push publishes,
// times out, withdraws, and lands in the inner queue.
func TestPushTimeoutFallsThrough(t *testing.T) {
	inner, q := newStrict(1)
	p := New[int64](inner, Config{Slots: 2, Timeout: time.Millisecond})

	p.Push(5, 50)
	if q.Len() != 1 {
		t.Fatalf("inner Len = %d after timed-out Push, want 1", q.Len())
	}
	snap := p.ObsSnapshot()
	if got := snap.Counter("publish.timeouts"); got != 1 {
		t.Fatalf("publish.timeouts = %d, want 1", got)
	}
	if got := snap.Counter("fallthrough.pushes"); got != 1 {
		t.Fatalf("fallthrough.pushes = %d, want 1", got)
	}
	if k, v, ok := p.Pop(); !ok || k != 5 || v != 50 {
		t.Fatalf("Pop = (%d, %d, %v), want (5, 50, true)", k, v, ok)
	}
	if got := p.ObsSnapshot().Counter("fallthrough.pops"); got != 1 {
		t.Fatalf("fallthrough.pops = %d, want 1", got)
	}
}

// TestPublishMissWhenArrayFull: an eligible Push that finds every slot
// occupied counts a miss and falls through without waiting.
func TestPublishMissWhenArrayFull(t *testing.T) {
	inner, q := newStrict(1)
	p := New[int64](inner, Config{Slots: 1, Timeout: time.Minute})

	if s, _ := p.publish(3, 30); s == nil {
		t.Fatal("first publish failed")
	}
	p.Push(2, 20) // array full: must miss, not wait out the huge timeout
	if got := p.ObsSnapshot().Counter("publish.misses"); got != 1 {
		t.Fatalf("publish.misses = %d, want 1", got)
	}
	if q.Len() != 1 {
		t.Fatalf("inner Len = %d, want 1", q.Len())
	}
}

// TestIneligiblePushSkipsExchanger: a Push whose key is above the
// min-estimate goes straight to the inner queue.
func TestIneligiblePushSkipsExchanger(t *testing.T) {
	inner, _ := newStrict(1)
	p := New[int64](inner, Config{Slots: 2, Timeout: time.Minute})
	p.est.Store(10)

	p.Push(50, 0) // 50 > estimate 10: no publish, no wait
	snap := p.ObsSnapshot()
	if got := snap.Counter("publish.timeouts") + snap.Counter("publish.misses"); got != 0 {
		t.Fatalf("ineligible Push touched the exchanger: %v", snap.Counters)
	}
	if got := snap.Counter("fallthrough.pushes"); got != 1 {
		t.Fatalf("fallthrough.pushes = %d, want 1", got)
	}
	if p.est.Load() != 10 {
		t.Fatalf("estimate raised by a larger Push: %d", p.est.Load())
	}
}

// exchangeOnce drives one guaranteed elimination through p: a publisher
// goroutine offers key (smaller than anything live) while this goroutine
// pops until the hit counter moves. Returns the number of attempts used.
func exchangeOnce(t *testing.T, p *PQ[int64], key int64) {
	t.Helper()
	before := p.ObsSnapshot().Counter("exchange.hits")
	for attempt := 0; attempt < 200; attempt++ {
		done := make(chan struct{})
		go func() {
			p.Push(key, key)
			close(done)
		}()
		for {
			if _, _, ok := p.Pop(); ok {
				break
			}
			// EMPTY: the publisher has not made its offer visible yet.
		}
		<-done
		if p.ObsSnapshot().Counter("exchange.hits") > before {
			return
		}
		key-- // the offer timed out into the queue and was popped; retry lower
	}
	t.Fatal("no elimination in 200 orchestrated attempts")
}

// TestExchangeHandsOff: a concurrent Push/Pop pair eliminates and the
// element never touches the inner queue.
func TestExchangeHandsOff(t *testing.T) {
	inner, q := newStrict(1)
	p := New[int64](inner, Config{Slots: 2, Timeout: 100 * time.Millisecond})

	exchangeOnce(t, p, 5)
	if hits := p.ObsSnapshot().Counter("exchange.hits"); hits < 1 {
		t.Fatalf("exchange.hits = %d, want >= 1", hits)
	}
	if q.Len() != 0 {
		t.Fatalf("inner Len = %d after elimination, want 0", q.Len())
	}
}

// TestElimChurnConservation churns an ElimPQ over the strict queue from many
// goroutines with unique keys and checks multiset conservation: every key is
// delivered exactly once, across both the exchange and queue paths.
func TestElimChurnConservation(t *testing.T) {
	inner, q := newStrict(7)
	p := New[int64](inner, Config{Slots: 4, Timeout: 200 * time.Microsecond})

	workers := 8
	perWorker := 1500
	if testing.Short() {
		workers, perWorker = 4, 400
	}

	delivered := make([]map[int64]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		delivered[w] = make(map[int64]int)
		go func(w int) {
			defer wg.Done()
			base := int64(1) << 40
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					p.Push(base-int64(i*workers+w), 0)
				} else if k, _, ok := p.Pop(); ok {
					delivered[w][k]++
				}
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[int64]int)
	for _, m := range delivered {
		for k, n := range m {
			seen[k] += n
		}
	}
	for {
		k, _, ok := p.Pop()
		if !ok {
			break
		}
		seen[k]++
	}
	if q.Len() != 0 {
		t.Fatalf("inner queue not drained: Len = %d", q.Len())
	}
	pushes := workers * ((perWorker + 1) / 2)
	total := 0
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %d delivered %d times", k, n)
		}
		total++
		_ = k
	}
	if total != pushes {
		t.Fatalf("delivered %d distinct keys, pushed %d", total, pushes)
	}
	t.Logf("elim churn: %d pushes, hits=%d timeouts=%d",
		pushes,
		p.ObsSnapshot().Counter("exchange.hits"),
		p.ObsSnapshot().Counter("publish.timeouts"))
}

// TestElimDefinition1Lincheck is the headline correctness test: a concurrent
// workload over ElimPQ-wrapping-the-strict-queue, both tracer streams merged
// under the queue's clock, must verify against Definition 1 — with at least
// one eliminated pair present in the history (demonstrated via the
// exchange.hits counter).
func TestElimDefinition1Lincheck(t *testing.T) {
	inner, q := newStrict(11)

	var mu sync.Mutex
	var history []lincheck.Op
	q.SetTracer(func(e core.TraceEvent[int64]) {
		mu.Lock()
		history = append(history, lincheck.Op{
			Insert: e.Insert, Key: e.Key, OK: e.OK,
			Stamp: e.Stamp, Done: e.Done, Start: e.Start,
		})
		mu.Unlock()
	})
	p := New[int64](inner, Config{
		Slots: 4, Timeout: 300 * time.Microsecond,
	})
	p.SetTracer(func(e Event) {
		mu.Lock()
		history = append(history, lincheck.Op{
			Insert: e.Insert, Key: e.Priority, OK: e.OK,
			Stamp: e.Stamp, Done: e.Done, Start: e.Start, Elim: true,
		})
		mu.Unlock()
	}, q.Now)

	workers := 8
	perWorker := 1200
	if testing.Short() {
		workers, perWorker = 4, 300
	}
	// Unique keys, descending over time: late Pushes tend to sit at or
	// below the current minimum, which is the elimination-friendly regime.
	base := int64(1) << 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					p.Push(base-int64(i*workers+w), 0)
				} else {
					p.Pop()
				}
			}
		}(w)
	}
	wg.Wait()

	// The concurrent phase almost always eliminates; if scheduling starved
	// the exchanger, force one traced exchange so the acceptance criterion
	// (>= 1 elimination, visible in exchange.hits) holds deterministically.
	if p.ObsSnapshot().Counter("exchange.hits") == 0 {
		exchangeOnce(t, p, base-int64(workers*perWorker)-1)
	}
	hits := p.ObsSnapshot().Counter("exchange.hits")
	if hits < 1 {
		t.Fatalf("exchange.hits = %d, want >= 1", hits)
	}

	elimPairs := 0
	for _, op := range history {
		if op.Elim && !op.Insert {
			elimPairs++
		}
	}
	if uint64(elimPairs) != hits {
		t.Fatalf("history has %d eliminated deletes, exchange.hits = %d", elimPairs, hits)
	}
	if err := lincheck.Verify(history); err != nil {
		t.Fatal(err)
	}
	if err := lincheck.VerifyConservation(history, q.CollectKeys(nil)); err != nil {
		t.Fatal(err)
	}
	t.Logf("lincheck: %d ops, %d eliminated pairs", len(history), elimPairs)
}
