package lease

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/multiset"
	"skipqueue/internal/wal"
)

// memPQ is the naive reference backend (mirrors internal/wal's test PQ).
type memEl struct {
	prio int64
	val  []byte
}

type memPQ struct {
	mu  sync.Mutex
	els []memEl
}

func (m *memPQ) Push(p int64, v []byte) {
	m.mu.Lock()
	m.els = append(m.els, memEl{p, v})
	m.mu.Unlock()
}

func (m *memPQ) min() int {
	best := 0
	for i := range m.els {
		if m.els[i].prio < m.els[best].prio {
			best = i
		}
	}
	return best
}

func (m *memPQ) Pop() (int64, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.els) == 0 {
		return 0, nil, false
	}
	i := m.min()
	e := m.els[i]
	m.els = append(m.els[:i], m.els[i+1:]...)
	return e.prio, e.val, true
}

func (m *memPQ) Peek() (int64, []byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.els) == 0 {
		return 0, nil, false
	}
	e := m.els[m.min()]
	return e.prio, e.val, true
}

func (m *memPQ) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.els)
}

// fakeClock lets tests move time by hand; the table's sweeper is
// disabled (Tick < 0) and Sweep driven explicitly.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestTable(t *testing.T, cfg Config, inner multiset.Queue[[]byte]) (*Table, *fakeClock) {
	t.Helper()
	cfg.Tick = -1
	if cfg.TTL == 0 {
		cfg.TTL = time.Second
	}
	clk := &fakeClock{t: time.UnixMilli(1_720_000_000_000)}
	tbl := New(cfg, inner)
	tbl.now = clk.now
	tbl.start = clk.now()
	t.Cleanup(tbl.Close)
	return tbl, clk
}

func (c *fakeClock) tick(tbl *Table, d time.Duration) {
	c.advance(d)
	tbl.Sweep()
}

func TestGrantAckLifecycle(t *testing.T) {
	tbl, clk := newTestTable(t, Config{}, &memPQ{})
	tbl.Push(5, []byte("work"))

	id, prio, deadline, v, ok := tbl.PopLease(0, false)
	if !ok || prio != 5 || string(v) != "work" || id == 0 {
		t.Fatalf("grant = %d/%d/%q/%v", id, prio, v, ok)
	}
	if want := clk.now().Add(time.Second); !deadline.Equal(want) {
		t.Fatalf("deadline %v, want %v", deadline, want)
	}
	if tbl.Len() != 0 || tbl.Outstanding() != 1 {
		t.Fatalf("leased element still visible: Len=%d Outstanding=%d", tbl.Len(), tbl.Outstanding())
	}
	if _, _, _, _, ok := tbl.PopLease(0, false); ok {
		t.Fatal("second PopLease found a second element")
	}
	if !tbl.Ack(id) {
		t.Fatal("ack of live lease failed")
	}
	if tbl.Ack(id) {
		t.Fatal("double ack succeeded")
	}
	clk.tick(tbl, 5*time.Second) // long after the deadline
	if tbl.Len() != 0 {
		t.Fatal("acked element resurrected by expiry")
	}
}

func TestExpiryRedelivers(t *testing.T) {
	tbl, clk := newTestTable(t, Config{TTL: 100 * time.Millisecond}, &memPQ{})
	tbl.Push(1, []byte("flaky"))

	id, _, _, _, ok := tbl.PopLease(0, false)
	if !ok {
		t.Fatal("grant failed")
	}
	clk.tick(tbl, 50*time.Millisecond)
	if tbl.Len() != 0 {
		t.Fatal("expired before the deadline")
	}
	clk.tick(tbl, 60*time.Millisecond) // deadline passed
	if tbl.Outstanding() != 0 {
		t.Fatal("lease survived its deadline")
	}
	if tbl.Len() != 1 {
		t.Fatal("expired element not redelivered")
	}
	if tbl.Ack(id) {
		t.Fatal("ack after expiry must fail")
	}

	// Redelivery carries the bumped count.
	id2, _, _, _, _ := tbl.PopLease(0, false)
	tbl.mu.Lock()
	deliveries := tbl.leases[id2].deliveries
	tbl.mu.Unlock()
	if deliveries != 2 {
		t.Fatalf("second delivery count = %d, want 2", deliveries)
	}
}

func TestNackAndExtend(t *testing.T) {
	tbl, clk := newTestTable(t, Config{TTL: 100 * time.Millisecond}, &memPQ{})
	tbl.Push(1, []byte("x"))

	id, _, _, _, _ := tbl.PopLease(0, false)
	if !tbl.Nack(id) {
		t.Fatal("nack of live lease failed")
	}
	if tbl.Len() != 1 {
		t.Fatal("nacked element not requeued")
	}

	id, _, dl, _, _ := tbl.PopLease(0, false)
	clk.advance(80 * time.Millisecond)
	dl2, ok := tbl.Extend(id, 0)
	if !ok || !dl2.After(dl) {
		t.Fatalf("extend: %v after %v, ok=%v", dl2, dl, ok)
	}
	clk.tick(tbl, 90*time.Millisecond) // past original deadline, not extended one
	if tbl.Outstanding() != 1 {
		t.Fatal("extended lease expired at the original deadline")
	}
	clk.tick(tbl, 100*time.Millisecond)
	if tbl.Outstanding() != 0 {
		t.Fatal("extended lease never expired")
	}
}

func TestMaxDeliveriesDeadLetter(t *testing.T) {
	fr := flight.New("test", 0, 64)
	tbl, clk := newTestTable(t, Config{TTL: 50 * time.Millisecond, MaxDeliveries: 2, Flight: fr}, &memPQ{})
	tbl.Push(9, []byte("poison"))

	for i := 0; i < 2; i++ {
		if _, _, _, _, ok := tbl.PopLease(0, false); !ok {
			t.Fatalf("delivery %d failed", i+1)
		}
		clk.tick(tbl, 60*time.Millisecond)
	}
	// Two failed deliveries: the next pop diverts instead of granting.
	if _, _, _, _, ok := tbl.PopLease(0, false); ok {
		t.Fatal("over-budget element granted a third delivery")
	}
	if tbl.DeadLen() != 1 {
		t.Fatalf("DeadLen=%d, want 1", tbl.DeadLen())
	}

	// The dead-letter queue drains over the same protocol.
	id, prio, _, v, ok := tbl.PopLease(0, true)
	if !ok || prio != 9 || string(v) != "poison" {
		t.Fatalf("dead-letter grant = %d/%q/%v", prio, v, ok)
	}
	// A nacked dead letter goes back to the dead queue, not the main one.
	tbl.Nack(id)
	if tbl.DeadLen() != 1 || tbl.Len() != 0 {
		t.Fatalf("nacked dead letter: DeadLen=%d Len=%d", tbl.DeadLen(), tbl.Len())
	}
	id, _, _, _, _ = tbl.PopLease(0, true)
	if !tbl.Ack(id) {
		t.Fatal("dead-letter ack failed")
	}
	if tbl.DeadLen() != 0 {
		t.Fatal("acked dead letter still queued")
	}
}

func TestDelayedInsert(t *testing.T) {
	tbl, clk := newTestTable(t, Config{}, &memPQ{})
	tbl.PushDelayed(1, 500*time.Millisecond, []byte("later"))
	tbl.Push(2, []byte("now"))

	// The delayed element has the lower priority but must not surface.
	prio, v, ok := tbl.Pop()
	if !ok || prio != 2 || string(v) != "now" {
		t.Fatalf("pop = %d/%q/%v, want the ready element", prio, v, ok)
	}
	if _, _, ok := tbl.Pop(); ok {
		t.Fatal("immature element popped")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len=%d, want the parked element counted", tbl.Len())
	}
	clk.tick(tbl, 600*time.Millisecond)
	prio, v, ok = tbl.Pop()
	if !ok || prio != 1 || string(v) != "later" {
		t.Fatalf("pop after maturity = %d/%q/%v", prio, v, ok)
	}

	// PopLease sifts immature elements the same way.
	tbl.PushDelayed(1, 300*time.Millisecond, []byte("l2"))
	if _, _, _, _, ok := tbl.PopLease(0, false); ok {
		t.Fatal("immature element leased")
	}
	clk.tick(tbl, 400*time.Millisecond)
	if _, _, _, v, ok := tbl.PopLease(0, false); !ok || string(v) != "l2" {
		t.Fatalf("lease after maturity = %q/%v", v, ok)
	}
}

func TestAckRaceAnomaly(t *testing.T) {
	fr := flight.New("test", 0, 64)
	tbl, clk := newTestTable(t, Config{TTL: 50 * time.Millisecond, Flight: fr}, &memPQ{})
	tbl.Push(1, []byte("x"))
	id, _, _, _, _ := tbl.PopLease(0, false)
	clk.tick(tbl, 60*time.Millisecond) // expire it
	if tbl.Ack(id) {
		t.Fatal("ack after expiry succeeded")
	}
	if snap := tbl.Snapshot(); snap.Counter("ack_races") != 1 || snap.Counter("no_lease") != 1 {
		t.Fatalf("ack_races = %d, no_lease = %d, want 1 each", snap.Counter("ack_races"), snap.Counter("no_lease"))
	}
	d, ok := fr.LastAnomaly()
	if !ok {
		t.Fatal("no anomaly captured")
	}
	found := false
	for _, ev := range d.Events {
		if ev.Kind == flight.KLeaseAckRace {
			found = true
		}
	}
	if !found {
		t.Fatal("expiry/ack race not flagged")
	}
	// A *bogus* ID is not a race.
	before := len(tbl.recent)
	tbl.Ack(424242)
	if len(tbl.recent) != before {
		t.Fatal("bogus ack touched the race ring")
	}
}

func TestRedeliveryStormAnomaly(t *testing.T) {
	fr := flight.New("test", 0, 256)
	tbl, clk := newTestTable(t, Config{TTL: 50 * time.Millisecond, Flight: fr}, &memPQ{})
	for i := 0; i < stormThreshold; i++ {
		tbl.Push(int64(i), []byte("w"))
	}
	for i := 0; i < stormThreshold; i++ {
		if _, _, _, _, ok := tbl.PopLease(0, false); !ok {
			t.Fatal("grant failed")
		}
	}
	clk.tick(tbl, time.Second) // all of them expire in one sweep
	d, ok := fr.LastAnomaly()
	if !ok {
		t.Fatal("no anomaly captured")
	}
	found := false
	for _, ev := range d.Events {
		if ev.Kind == flight.KRedeliveryStorm && ev.Arg == stormThreshold {
			found = true
		}
	}
	if !found {
		t.Fatal("redelivery storm not flagged")
	}
	if tbl.Len() != stormThreshold {
		t.Fatalf("Len=%d after storm requeue, want %d", tbl.Len(), stormThreshold)
	}
}

// TestPushCopiesValue: Push and PushDelayed store a copy of the value, so
// a caller that reuses its buffer once they return (the server hands the
// table its connection read buffer) leaves the queued bytes intact.
func TestPushCopiesValue(t *testing.T) {
	tbl, clk := newTestTable(t, Config{}, &memPQ{})
	buf := []byte("first")
	tbl.Push(1, buf)
	copy(buf, "XXXXX")
	buf = []byte("second")
	tbl.PushDelayed(2, time.Millisecond, buf)
	copy(buf, "YYYYYY")
	clk.tick(tbl, time.Second) // the delayed element matures
	for _, want := range []string{"first", "second"} {
		if _, v, ok := tbl.Pop(); !ok || string(v) != want {
			t.Fatalf("Pop = %q/%v, want %q", v, ok, want)
		}
	}
}

func TestNackAllDrain(t *testing.T) {
	tbl, _ := newTestTable(t, Config{MaxDeliveries: 3}, &memPQ{})
	for i := 0; i < 5; i++ {
		tbl.Push(int64(i), []byte{byte('a' + i)})
	}
	// Lowest priority but immature: the first PopLease sifts it into
	// the deadline heap before granting a ready element.
	tbl.PushDelayed(-1, time.Hour, []byte("parked"))
	for i := 0; i < 3; i++ {
		if _, _, _, _, ok := tbl.PopLease(0, false); !ok {
			t.Fatalf("grant %d failed", i)
		}
	}
	if len(tbl.delayed) != 1 {
		t.Fatalf("delayed element not parked (%d parked)", len(tbl.delayed))
	}
	if n := tbl.NackAll(); n != 3 {
		t.Fatalf("NackAll returned %d, want 3", n)
	}
	if tbl.Outstanding() != 0 {
		t.Fatal("leases survived NackAll")
	}
	// 3 nacked + 2 never-leased + the parked one back in the backend
	// (still immature, but inner-visible for the shutdown snapshot).
	if tbl.inner.Len() != 6 {
		t.Fatalf("inner.Len=%d after drain, want 6", tbl.inner.Len())
	}
}

// TestDurableLeaseFlow runs the table over a real WAL-backed queue and
// crashes at the worst moment: leases outstanding, nothing nacked back.
// Recovery must redeliver every unacked element with its delivery count
// intact, and keep acked elements gone.
func TestDurableLeaseFlow(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Table, *wal.Queue, *fakeClock) {
		q, _, err := wal.OpenQueue(wal.Config{Dir: dir, SyncInterval: time.Millisecond}, &memPQ{})
		if err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: time.UnixMilli(1_720_000_000_000)}
		tbl := New(Config{Tick: -1, TTL: time.Second, MaxDeliveries: 3}, q)
		tbl.now = clk.now
		tbl.start = clk.now()
		return tbl, q, clk
	}

	tbl, q, _ := open()
	if !tbl.Durable() {
		t.Fatal("wal.Queue not detected as a Leaser")
	}
	for i := 1; i <= 3; i++ {
		tbl.Push(int64(i), []byte(fmt.Sprintf("job-%d", i)))
	}
	idAck, _, _, _, _ := tbl.PopLease(0, false)
	tbl.PopLease(0, false) // abandoned in flight
	idNack, _, _, _, _ := tbl.PopLease(0, false)
	tbl.Ack(idAck)
	tbl.Nack(idNack) // requeued with deliveries=1 before the crash
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	q.Log().Close() // kill -9: no NackAll, no snapshot

	tbl2, q2, _ := open()
	defer func() { tbl2.Close(); q2.Close() }()
	if got := tbl2.Len(); got != 2 {
		t.Fatalf("recovered Len=%d, want 2 (abandoned + nacked)", got)
	}
	// The abandoned lease (job-2) redelivers with count 1: a grant logs
	// nothing, so its delivery died with the crash uncounted and the count
	// restarts at the last *requeued* header. The nacked element carries
	// its bump.
	seen := map[string]uint32{}
	for {
		id, _, _, v, ok := tbl2.PopLease(0, false)
		if !ok {
			break
		}
		tbl2.mu.Lock()
		seen[string(v)] = tbl2.leases[id].deliveries
		tbl2.mu.Unlock()
	}
	if len(seen) != 2 {
		t.Fatalf("redelivered %v, want job-2 and job-3", seen)
	}
	if seen["job-2"] != 1 {
		t.Fatalf("abandoned element delivery count = %d, want 1 (crash loses the in-flight bump)", seen["job-2"])
	}
	if seen["job-3"] != 2 {
		t.Fatalf("nacked element delivery count = %d, want 2 (durable bump)", seen["job-3"])
	}
	if _, _, ok := tbl2.Pop(); ok {
		t.Fatal("acked element resurrected")
	}
}

// TestSweepCommitsRequeue: a sync-mode WAL has no background flusher, so a
// sweep must commit its own requeue records. Nothing else commits here,
// yet the expired lease's requeue is on disk as soon as Sweep returns.
func TestSweepCommitsRequeue(t *testing.T) {
	dir := t.TempDir()
	q, _, err := wal.OpenQueue(wal.Config{Dir: dir}, &memPQ{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	tbl, clk := newTestTable(t, Config{TTL: 50 * time.Millisecond}, q)
	tbl.Push(1, []byte("job"))
	if _, _, _, _, ok := tbl.PopLease(0, false); !ok {
		t.Fatal("grant failed")
	}
	if d := q.Log().DurableLSN(); d != 0 {
		t.Fatalf("durable LSN %d before any commit", d)
	}
	clk.tick(tbl, time.Second) // expire: requeue with deliveries=1

	rec, err := wal.Recover(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Records != 2 || len(rec.Items) != 1 {
		t.Fatalf("after sweep: records=%d items=%d, want push+requeue durable",
			rec.Records, len(rec.Items))
	}
	if n, _, v := unwrapValue(rec.Items[0].Value); n != 1 || string(v) != "job" {
		t.Fatalf("recovered %q with deliveries=%d, want the requeued header", v, n)
	}
}

// TestRecordsPerCycle: over a wal.Queue, a delivery costs its push and one
// retiring record whether it is a plain Pop or a PopLease plus its Ack —
// a grant appends nothing.
func TestRecordsPerCycle(t *testing.T) {
	const n = 50
	for _, leased := range []bool{false, true} {
		q, _, err := wal.OpenQueue(wal.Config{Dir: t.TempDir()}, &memPQ{})
		if err != nil {
			t.Fatal(err)
		}
		tbl := New(Config{Tick: -1}, q)
		for i := 0; i < n; i++ {
			tbl.Push(int64(i), []byte("job"))
		}
		for i := 0; i < n; i++ {
			if leased {
				id, _, _, _, ok := tbl.PopLease(0, false)
				if !ok || !tbl.Ack(id) {
					t.Fatalf("cycle %d: grant or ack failed", i)
				}
			} else if _, _, ok := tbl.Pop(); !ok {
				t.Fatalf("pop %d failed", i)
			}
		}
		if got := q.Log().Snapshot().Counter("append.records"); got != 2*n {
			t.Fatalf("leased=%v: %d pushes and pops appended %d records, want %d", leased, n, got, 2*n)
		}
		tbl.Close()
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableDeadLetterCrash: a dead-lettered element survives a crash
// (its token is never acked) and is re-diverted on the next pop sweep.
func TestDurableDeadLetterCrash(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Table, *wal.Queue, *fakeClock) {
		q, _, err := wal.OpenQueue(wal.Config{Dir: dir, SyncInterval: time.Millisecond}, &memPQ{})
		if err != nil {
			t.Fatal(err)
		}
		clk := &fakeClock{t: time.UnixMilli(1_720_000_000_000)}
		tbl := New(Config{Tick: -1, TTL: 50 * time.Millisecond, MaxDeliveries: 1}, q)
		tbl.now = clk.now
		tbl.start = clk.now()
		return tbl, q, clk
	}
	tbl, q, clk := open()
	tbl.Push(1, []byte("poison"))
	tbl.PopLease(0, false)
	clk.tick(tbl, time.Minute) // expires; MaxDeliveries=1 → straight to dead
	if tbl.DeadLen() != 1 {
		t.Fatalf("DeadLen=%d, want 1", tbl.DeadLen())
	}
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	tbl.Close()
	q.Log().Close() // crash with the element dead-lettered

	tbl2, q2, _ := open()
	defer func() { tbl2.Close(); q2.Close() }()
	// Recovery resurrects it into the main queue; the first pop attempt
	// re-diverts it (its durable header says deliveries=1 ≥ max).
	if _, _, ok := tbl2.Pop(); ok {
		t.Fatal("over-budget element popped after recovery")
	}
	if tbl2.DeadLen() != 1 {
		t.Fatalf("DeadLen=%d after recovery sweep, want 1", tbl2.DeadLen())
	}
	id, _, _, v, ok := tbl2.PopLease(0, true)
	if !ok || string(v) != "poison" {
		t.Fatalf("dead-letter drain after crash = %q/%v", v, ok)
	}
	tbl2.Ack(id)
	if tbl2.DeadLen() != 0 || tbl2.Len() != 0 {
		t.Fatalf("after final ack: DeadLen=%d Len=%d", tbl2.DeadLen(), tbl2.Len())
	}
}

func TestConcurrentLeaseChurn(t *testing.T) {
	tbl, _ := newTestTable(t, Config{TTL: time.Minute}, &memPQ{})
	const items = 400
	for i := 0; i < items; i++ {
		tbl.Push(int64(i), []byte{byte(i)})
	}
	var wg sync.WaitGroup
	var acked atomic64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				id, _, _, _, ok := tbl.PopLease(0, false)
				if !ok {
					// Empty might be transient: a peer may be about to
					// nack an element back. Only the ack count is final.
					if acked.load() == items {
						return
					}
					runtime.Gosched()
					continue
				}
				if id%3 == 0 {
					tbl.Nack(id) // requeue: someone else picks it up
					continue
				}
				if !tbl.Ack(id) {
					panic("ack of fresh lease failed")
				}
				acked.add(1)
			}
		}()
	}
	wg.Wait()
	if got := acked.load(); got != items {
		t.Fatalf("acked %d of %d", got, items)
	}
	if tbl.Len() != 0 || tbl.Outstanding() != 0 {
		t.Fatalf("residue: Len=%d Outstanding=%d", tbl.Len(), tbl.Outstanding())
	}
}

type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestDeadlineExact: a lease is held until the instant of its deadline
// and expires at it, whatever the offset of the grant from the table's
// start.
func TestDeadlineExact(t *testing.T) {
	tbl, clk := newTestTable(t, Config{}, &memPQ{})
	tbl.Push(1, []byte("x"))
	clk.advance(3 * time.Millisecond)
	_, _, deadline, _, ok := tbl.PopLease(100*time.Millisecond, false)
	if !ok {
		t.Fatal("grant failed")
	}
	clk.tick(tbl, deadline.Sub(clk.now())-time.Nanosecond)
	if tbl.Outstanding() != 1 {
		t.Fatal("lease expired 1ns before its deadline")
	}
	clk.tick(tbl, time.Nanosecond)
	if tbl.Outstanding() != 0 || tbl.Len() != 1 {
		t.Fatalf("at the deadline: Outstanding=%d Len=%d, want expired and requeued", tbl.Outstanding(), tbl.Len())
	}
}

// TestExtendEarlierDeadline: an Extend shorter than the time left moves
// the deadline earlier, and the lease expires at the new deadline.
func TestExtendEarlierDeadline(t *testing.T) {
	tbl, clk := newTestTable(t, Config{TTL: time.Hour}, &memPQ{})
	tbl.Push(1, []byte("x"))
	clk.advance(3 * time.Millisecond)
	id, _, _, _, _ := tbl.PopLease(0, false)
	deadline, ok := tbl.Extend(id, 20*time.Millisecond)
	if !ok || !deadline.Equal(clk.now().Add(20*time.Millisecond)) {
		t.Fatalf("extend = %v/%v", deadline, ok)
	}
	clk.tick(tbl, deadline.Sub(clk.now())-time.Nanosecond)
	if tbl.Outstanding() != 1 {
		t.Fatal("lease expired before its new deadline")
	}
	clk.tick(tbl, time.Nanosecond)
	if tbl.Outstanding() != 0 {
		t.Fatal("lease held past its new, earlier deadline")
	}
}

// TestExtendEarlierRearmsTimer is the real-clock form: a one-hour lease
// shortened to 20ms must be expired by the background timer, which has
// to re-arm for the earlier deadline.
func TestExtendEarlierRearmsTimer(t *testing.T) {
	tbl := New(Config{TTL: time.Hour, Tick: 5 * time.Millisecond}, &memPQ{})
	defer tbl.Close()
	tbl.Push(1, []byte("x"))
	id, _, _, _, _ := tbl.PopLease(0, false)
	if _, ok := tbl.Extend(id, 20*time.Millisecond); !ok {
		t.Fatal("extend failed")
	}
	limit := time.Now().Add(time.Second)
	for tbl.Outstanding() != 0 {
		if time.Now().After(limit) {
			t.Fatal("lease shortened to 20ms still held after 1s")
		}
		time.Sleep(time.Millisecond)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len=%d after expiry, want the element requeued", tbl.Len())
	}
}

// TestTimerArmedOnlyWhilePending: the background timer is armed only
// while a lease or a delayed element is pending.
func TestTimerArmedOnlyWhilePending(t *testing.T) {
	tbl := New(Config{TTL: time.Hour, Tick: 5 * time.Millisecond}, &memPQ{})
	defer tbl.Close()
	armed := func() bool {
		tbl.mu.Lock()
		defer tbl.mu.Unlock()
		return tbl.wake != noWake
	}
	if armed() {
		t.Fatal("a new table armed its timer")
	}
	tbl.Push(1, []byte("x"))
	id, _, _, _, _ := tbl.PopLease(0, false)
	if !armed() {
		t.Fatal("no timer armed for a live lease")
	}
	tbl.Ack(id)
	if armed() {
		t.Fatal("timer still armed after the last lease was acked")
	}
	tbl.PushDelayed(1, time.Hour, []byte("later"))
	if _, _, ok := tbl.Pop(); ok {
		t.Fatal("immature element popped")
	}
	if !armed() {
		t.Fatal("no timer armed for a parked delayed element")
	}
	tbl.NackAll()
	if armed() {
		t.Fatal("timer still armed after NackAll emptied the table")
	}
	tbl.Sweep()
	if armed() {
		t.Fatal("a sweep of an empty table armed the timer")
	}
}

// TestDeadLetterDrainUnpinsValue: popping a dead letter clears its slot,
// so the dead queue's backing array does not keep the value reachable.
func TestDeadLetterDrainUnpinsValue(t *testing.T) {
	tbl, clk := newTestTable(t, Config{TTL: 50 * time.Millisecond, MaxDeliveries: 1}, &memPQ{})
	tbl.Push(1, []byte("poison"))
	tbl.PopLease(0, false)
	clk.tick(tbl, time.Second) // MaxDeliveries=1: straight to the dead queue
	tbl.mu.Lock()
	orig := tbl.dead
	tbl.mu.Unlock()
	if len(orig) != 1 {
		t.Fatalf("DeadLen=%d, want 1", len(orig))
	}
	if _, _, _, _, ok := tbl.PopLease(0, true); !ok {
		t.Fatal("dead-letter grant failed")
	}
	if orig[0] != nil {
		t.Fatal("drained dead letter still pinned by the dead queue's backing array")
	}
}

// TestDeadlinesHeap drives the deadline heap with random pushes, removes
// and re-keys, checking heap order, every owner's index, and that popping
// the root yields the deadlines in sorted order.
func TestDeadlinesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h deadlines
	pos := map[uint64]*int{}
	at := map[uint64]int64{}
	check := func() {
		t.Helper()
		for i, s := range h {
			if *s.pos != i {
				t.Fatalf("slot %d (id %d) has index %d", i, s.id, *s.pos)
			}
			if i > 0 && h[(i-1)/2].at > s.at {
				t.Fatalf("slot %d's deadline %d precedes its parent's", i, s.at)
			}
		}
		if len(h) != len(pos) {
			t.Fatalf("heap holds %d slots, want %d", len(h), len(pos))
		}
	}
	var seq uint64
	for op := 0; op < 20_000; op++ {
		switch r := rng.Intn(10); {
		case r < 5 || len(h) == 0:
			seq++
			p := new(int)
			pos[seq], at[seq] = p, rng.Int63n(1000)
			h.push(at[seq], seq, p)
		case r < 8:
			id := h[rng.Intn(len(h))].id
			h.remove(*pos[id])
			delete(pos, id)
			delete(at, id)
		default:
			id := h[rng.Intn(len(h))].id
			at[id] = rng.Int63n(1000)
			h[*pos[id]].at = at[id]
			h.fix(*pos[id])
		}
		check()
	}
	want := make([]int64, 0, len(at))
	for _, a := range at {
		want = append(want, a)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		if h[0].at != w {
			t.Fatalf("pop %d = %d, want %d", i, h[0].at, w)
		}
		delete(pos, h[0].id)
		h.remove(0)
		check()
	}
}
