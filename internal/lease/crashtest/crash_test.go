// Package crashtest is the lease protocol's crash-injection harness: it
// repeatedly kill -9s real *consumer* processes (re-exec'd copies of this
// test binary) holding live leases against a real pqd, and verifies, via
// internal/quality's at-least-once analysis, that
//
//   - no acked element is ever lost or delivered again,
//   - every element whose lease died with its consumer is redelivered
//     (with -lease-crash-deadline: within two expiry windows of the final
//     kill),
//   - the only tolerated loss shape is an ack that went durable while the
//     consumer died before logging the server's reply ("acking" printed,
//     "acked" never was) — each such element grants exactly one
//     lost-element allowance.
//
// Every fifth cycle also kill -9s the daemon itself, so recovery has to
// bring back in-flight leases' elements, which no WAL record retired,
// before the consumers reconnect.
//
// The consumer subprocess speaks a line protocol on stdout — "lease
// id=<id> key=<key>", "acking id=<id>", "acked id=<id>" — and each line
// is one write syscall, so everything printed before the SIGKILL is
// observable and everything after it never happens.
//
// Run the full battery with `make lease-smoke` (25 cycles, deadline
// enforced); the default tier-1 run keeps a shorter budget.
package crashtest

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"skipqueue/internal/client"
	"skipqueue/internal/quality"
)

var (
	leaseCycles = flag.Int("lease-crash-cycles", 6, "consumer kill -9 cycles to run")
	leaseTTL    = flag.Duration("lease-crash-ttl", 150*time.Millisecond, "server lease TTL")
	// The deadline is a latency promise, which a loaded machine can break
	// without any bug; only the full nightly battery enforces it.
	leaseDeadline = flag.Bool("lease-crash-deadline", false,
		"require the final drain to finish within 2×TTL+250ms instead of draining until the queue stays empty for 2×TTL")
)

// drainCap bounds the final drain when the deadline is not enforced: a
// queue that never stays empty for 2×TTL is a liveness failure.
const drainCap = 10 * time.Second

// TestMain doubles as the consumer entry point: when the harness re-execs
// this binary with LEASE_CRASH_CONSUMER set, it runs the consumer loop
// until the harness kill -9s it, and never reaches the test runner.
func TestMain(m *testing.M) {
	if addr := os.Getenv("LEASE_CRASH_CONSUMER"); addr != "" {
		consumerMain(addr)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// consumerMain leases, works, and acks in a loop, narrating each step on
// stdout. It abandons a fraction of its leases (simulating work that
// never finishes) and exits on persistent connection errors — the
// harness owns its lifetime either way.
func consumerMain(addr string) {
	seed, _ := strconv.ParseInt(os.Getenv("LEASE_CRASH_SEED"), 10, 64)
	rng := rand.New(rand.NewSource(seed))
	for {
		cl, err := client.Dial(client.Config{Addr: addr, Retries: -1})
		if err != nil {
			// Daemon may be mid-restart (server-crash cycles); retry until
			// the harness kills us.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		consumeLoop(cl, rng)
		cl.Close()
		time.Sleep(10 * time.Millisecond)
	}
}

func consumeLoop(cl *client.Client, rng *rand.Rand) {
	for {
		l, found, err := cl.PopLease(0)
		if err != nil {
			return // connection died; redial
		}
		if !found {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		id, perr := strconv.ParseUint(string(l.Value), 10, 64)
		if perr != nil {
			fmt.Printf("badvalue %q\n", l.Value)
			os.Exit(2)
		}
		fmt.Printf("lease id=%d key=%d\n", id, l.Priority)
		// Simulated work, always well inside the TTL so a live consumer
		// never races its own expiry.
		time.Sleep(time.Duration(rng.Intn(10)) * time.Millisecond)
		if rng.Intn(100) < 15 {
			continue // abandon: the lease expires and the server redelivers
		}
		fmt.Printf("acking id=%d\n", id)
		if err := l.Ack(); err != nil {
			if errors.Is(err, client.ErrNoLease) {
				continue // expired under us; someone else will get it
			}
			return
		}
		fmt.Printf("acked id=%d\n", id)
	}
}

// aloHistory accumulates the at-least-once delivery history across all
// consumers, cycles, and the final drain.
type aloHistory struct {
	mu     sync.Mutex
	stamp  int64
	events []quality.DeliveryEvent
	acking map[uint64]int // id → "acking" lines seen
	acked  map[uint64]int // id → "acked" lines seen
}

func newALOHistory() *aloHistory {
	return &aloHistory{acking: map[uint64]int{}, acked: map[uint64]int{}}
}

func (h *aloHistory) add(k quality.DKind, id uint64, key int64) {
	h.mu.Lock()
	h.stamp++
	h.events = append(h.events, quality.DeliveryEvent{Kind: k, ID: id, Key: key, Stamp: h.stamp})
	h.mu.Unlock()
}

// parseLine folds one consumer stdout line into the history. It runs on
// a scanner goroutine, so malformed lines report with Errorf (goroutine-
// safe), never Fatalf. Keys for ack lines come from the producer-side
// id→key map.
func (h *aloHistory) parseLine(t *testing.T, line string, keys map[uint64]int64) {
	fields := strings.Fields(line)
	kv := func(i int, name string) (uint64, bool) {
		if i >= len(fields) {
			t.Errorf("malformed consumer line %q", line)
			return 0, false
		}
		v, ok := strings.CutPrefix(fields[i], name+"=")
		if !ok {
			t.Errorf("malformed consumer line %q", line)
			return 0, false
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Errorf("malformed consumer line %q: %v", line, err)
			return 0, false
		}
		return n, true
	}
	switch {
	case strings.HasPrefix(line, "lease id="):
		id, ok1 := kv(1, "id")
		key, ok2 := kv(2, "key")
		if !ok1 || !ok2 {
			return
		}
		h.add(quality.DDeliver, id, int64(key))
		if want, known := keys[id]; !known || want != int64(key) {
			t.Errorf("consumer leased unknown or mis-keyed element: %q", line)
		}
	case strings.HasPrefix(line, "acking id="):
		if id, ok := kv(1, "id"); ok {
			h.mu.Lock()
			h.acking[id]++
			h.mu.Unlock()
		}
	case strings.HasPrefix(line, "acked id="):
		if id, ok := kv(1, "id"); ok {
			h.add(quality.DAck, id, keys[id])
			h.mu.Lock()
			h.acked[id]++
			h.mu.Unlock()
		}
	case strings.HasPrefix(line, "badvalue"):
		t.Errorf("consumer saw a corrupt value: %s", line)
	}
}

// indeterminateAcks counts elements with more ack attempts than ack
// confirmations — the only shape allowed to show up as a lost element.
func (h *aloHistory) indeterminateAcks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for id, tries := range h.acking {
		if tries > h.acked[id] {
			n++
		}
	}
	return n
}

// buildPQD compiles the real daemon once per test run.
func buildPQD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pqd")
	cmd := exec.Command("go", "build", "-o", bin, "skipqueue/cmd/pqd")
	cmd.Dir = "../../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pqd: %v\n%s", err, out)
	}
	return bin
}

// proc is one child process (daemon or consumer) with reap-once kill.
type proc struct {
	cmd       *exec.Cmd
	addr      string
	snapItems int // snapshot_items= on a daemon's WAL recovery line
	stderr    *strings.Builder
	lines     sync.WaitGroup // stdout fully parsed when done
	reap      sync.Once
}

func (p *proc) kill() {
	p.reap.Do(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
}

// startPQD launches a lease-enabled durable pqd against walDir. A daemon
// lifetime here logs about 15 KB, so 4 KiB segments are what make the WAL
// compact within one: leases, requeues and dead-letter rewrites then cross
// snapshots under kill -9.
func startPQD(t *testing.T, bin, walDir string) *proc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-wal-dir", walDir,
		"-wal-mode", "sync",
		"-wal-segment-bytes", "4096",
		"-wal-snapshot-segments", "2",
		"-lease",
		"-lease-ttl", leaseTTL.String(),
		"-lease-tick", "5ms",
		"-drain-window", "50ms",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, stderr: &strings.Builder{}}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting pqd: %v", err)
	}
	t.Cleanup(p.kill) // a failing test must not leave its daemon running
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			// The recovery line precedes the listening line, and the send
			// on addrc publishes snapItems to the caller.
			if _, rest, ok := strings.Cut(sc.Text(), "snapshot_items="); ok {
				p.snapItems, _ = strconv.Atoi(strings.Fields(rest)[0])
			}
			if _, rest, ok := strings.Cut(sc.Text(), "listening addr="); ok {
				addrc <- strings.Fields(rest)[0]
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case p.addr = <-addrc:
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("pqd never announced an address; stderr:\n%s", p.stderr)
	}
	return p
}

// startConsumer re-execs this test binary in consumer mode. Its stdout
// is parsed into h as lines arrive; p.lines.Wait() after kill() ensures
// every line written before the SIGKILL has been folded in.
func startConsumer(t *testing.T, h *aloHistory, addr string, seed int64, keys map[uint64]int64) *proc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"LEASE_CRASH_CONSUMER="+addr,
		"LEASE_CRASH_SEED="+strconv.FormatInt(seed, 10),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: cmd, stderr: &strings.Builder{}}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting consumer: %v", err)
	}
	t.Cleanup(p.kill)
	p.lines.Add(1)
	go func() {
		defer p.lines.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			h.parseLine(t, sc.Text(), keys)
		}
	}()
	return p
}

// TestConsumerCrashRedelivery is the at-least-once acceptance gate: N
// cycles of kill -9'd consumers (with periodic daemon kills layered in),
// then a clean drain until the queue stays empty for two lease-expiry
// windows, analyzed for zero acked-element loss and zero post-ack delivery.
func TestConsumerCrashRedelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash injection spawns real processes; skipped in -short")
	}
	bin := buildPQD(t)
	walDir := t.TempDir()
	h := newALOHistory()
	keys := map[uint64]int64{} // id → key, written only between cycles
	var nextID uint64

	p := startPQD(t, bin, walDir)
	snapRestarts := 0 // daemon restarts that recovered from a snapshot
	const perCycle = 40
	for cycle := 0; cycle < *leaseCycles; cycle++ {
		// Produce this cycle's batch synchronously: every insert is acked
		// by the daemon before a consumer can see it, so DInsert events
		// are definite.
		prod, err := client.Dial(client.Config{Addr: p.addr, Retries: -1})
		if err != nil {
			t.Fatalf("cycle %d: producer dial: %v", cycle, err)
		}
		rng := rand.New(rand.NewSource(int64(cycle) * 7919))
		for i := 0; i < perCycle; i++ {
			nextID++
			key := int64(rng.Intn(1000))
			if err := prod.Insert(key, []byte(strconv.FormatUint(nextID, 10))); err != nil {
				t.Fatalf("cycle %d: insert: %v", cycle, err)
			}
			keys[nextID] = key
			h.add(quality.DInsert, nextID, key)
		}
		prod.Close()

		// Two consumers chew on the batch; both die by SIGKILL at
		// staggered offsets, the first mid-lease with high likelihood.
		c1 := startConsumer(t, h, p.addr, int64(cycle)*131+1, keys)
		c2 := startConsumer(t, h, p.addr, int64(cycle)*131+2, keys)
		time.Sleep(60*time.Millisecond + time.Duration(cycle%4)*20*time.Millisecond)
		c1.kill()
		time.Sleep(30 * time.Millisecond)
		c2.kill()
		c1.lines.Wait()
		c2.lines.Wait()

		// Every fifth cycle the daemon dies too: recovery must bring back
		// the in-flight leases' elements, which no WAL record retired.
		if cycle%5 == 4 {
			p.kill()
			if s := p.stderr.String(); strings.Contains(s, "panic") {
				t.Fatalf("cycle %d: daemon panicked:\n%s", cycle, s)
			}
			p = startPQD(t, bin, walDir)
			if p.snapItems > 0 {
				snapRestarts++
			}
		}
	}

	// Redelivery gate: every lease that died with its consumer expires
	// within one TTL of the drain's start, so a drain that then sees the
	// queue stay empty for 2×TTL has seen every redelivery. With
	// -lease-crash-deadline the drain must also be over within 2×TTL plus
	// the minimum sweep gap and scheduling slack.
	quiet := 2 * *leaseTTL
	start := time.Now()
	lastFound := start
	cl, err := client.Dial(client.Config{Addr: p.addr, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	drained := 0
	for {
		l, found, err := cl.PopLease(0)
		if err != nil {
			t.Fatalf("final drain: %v", err)
		}
		if !found {
			now := time.Now()
			if *leaseDeadline && now.Sub(start) > quiet+250*time.Millisecond {
				break
			}
			if !*leaseDeadline && now.Sub(lastFound) >= quiet {
				break
			}
			if now.Sub(start) > drainCap {
				t.Fatalf("final drain: queue never stayed empty for %v within %v", quiet, drainCap)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		lastFound = time.Now()
		id, perr := strconv.ParseUint(string(l.Value), 10, 64)
		if perr != nil {
			t.Fatalf("final drain delivered %q, not an id", l.Value)
		}
		h.add(quality.DDeliver, id, l.Priority)
		if err := l.Ack(); err != nil {
			if errors.Is(err, client.ErrNoLease) {
				// Descheduled past the TTL between grant and ack: the
				// lease expired under us and the element comes round again.
				continue
			}
			t.Fatalf("final drain ack of %d: %v", id, err)
		}
		h.add(quality.DAck, id, l.Priority)
		drained++
	}
	cl.Close()
	p.kill()
	if s := p.stderr.String(); strings.Contains(s, "panic") {
		t.Fatalf("final daemon panicked:\n%s", s)
	}

	// The queue is drained, so the remainder is empty: every inserted
	// element must now be acked, except for the bounded ack-went-durable-
	// but-consumer-died indeterminacy.
	maxLost := h.indeterminateAcks()
	h.mu.Lock()
	events := h.events
	h.mu.Unlock()
	t.Logf("cycles=%d inserted=%d drained_at_end=%d indeterminate_acks=%d snapshot_restarts=%d",
		*leaseCycles, nextID, drained, maxLost, snapRestarts)

	// Whether one restart finds a live element in the snapshot depends on
	// kill timing, so the gate applies only to runs with several restarts
	// (make lease-smoke's 25 cycles have five); the 6-cycle default has one.
	if snapRestarts == 0 && *leaseCycles >= 10 {
		t.Error("no daemon restart recovered from a snapshot; the WAL never compacted across a kill -9")
	}

	rep, err := quality.AnalyzeAtLeastOnceCrash(events, nil, maxLost)
	if err != nil {
		t.Fatalf("at-least-once across %d consumer crashes: %v", *leaseCycles, err)
	}
	t.Logf("verified: %s lost=%d/%d", rep, rep.Lost, maxLost)

	// Sanity: the battery must have exercised real crashes, not an idle
	// daemon — elements were inserted, leased, and redelivered.
	if rep.Inserts == 0 || rep.Deliveries == 0 {
		t.Fatal("harness recorded no load")
	}
	if rep.Acked+rep.Lost != rep.Inserts {
		t.Fatalf("drain left elements behind: acked=%d lost=%d inserts=%d",
			rep.Acked, rep.Lost, rep.Inserts)
	}
	if rep.Redeliveries == 0 {
		t.Error("no redeliveries observed; kills landed after all acks — raise load or cycle count")
	}
}
