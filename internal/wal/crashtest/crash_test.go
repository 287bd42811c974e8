// Package crashtest is the WAL's crash-injection harness: it repeatedly
// kill -9s a real pqd process under concurrent durable load and verifies,
// via internal/quality's conservation analysis, that no acknowledged
// operation is ever lost or duplicated across recovery.
//
// The reconciliation rules mirror what a crash can legitimately do to an
// in-flight operation:
//
//   - An ACKed insert is definite: its element must either be delivered
//     later or sit in the final remainder. An ACKed delete is definite:
//     its element must never reappear.
//   - An unACKed insert is indeterminate: if its element materializes
//     (delivered later, or present in the remainder) the harness
//     synthesizes the missing insert event; if it never materializes, the
//     insert simply didn't happen.
//   - An unACKed delete is the one legitimate loss shape: the pop record
//     may have gone durable while the response died with the process, so
//     the element is gone but nobody owns it. Each unACKed delete grants
//     the analysis exactly one lost-element allowance — anything beyond
//     that is a real durability bug.
//
// Run the full battery with `make crash-smoke` (25 cycles); the default
// tier-1 run keeps a shorter budget.
package crashtest

import (
	"bufio"
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
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"skipqueue/internal/client"
	"skipqueue/internal/quality"
)

var (
	crashCycles = flag.Int("crash-cycles", 6, "kill -9/recover cycles to run")
	crashLoadMS = flag.Int("crash-load-ms", 120, "load duration per cycle before the kill")
)

// history is the shared, concurrency-safe record of every operation
// outcome across all cycles and workers.
type history struct {
	mu            sync.Mutex
	events        []quality.Event
	unackedPush   map[uint64]int64 // id -> key: insert sent, no ACK seen
	unackedPops   int              // deletes sent, no ACK seen
	ackedPopIDs   map[uint64]bool  // ids delivered by ACKed deletes
	stamp         int64
	acked, errors int
}

func newHistory() *history {
	return &history{unackedPush: map[uint64]int64{}, ackedPopIDs: map[uint64]bool{}}
}

func (h *history) ackPush(id uint64, key int64) {
	h.mu.Lock()
	h.stamp++
	h.events = append(h.events, quality.Event{Insert: true, Key: key, ID: id, OK: true, Stamp: h.stamp})
	h.acked++
	h.mu.Unlock()
}

func (h *history) failPush(id uint64, key int64) {
	h.mu.Lock()
	h.unackedPush[id] = key
	h.errors++
	h.mu.Unlock()
}

func (h *history) ackPop(id uint64, key int64) {
	h.mu.Lock()
	h.stamp++
	h.events = append(h.events, quality.Event{Insert: false, Key: key, ID: id, OK: true, Stamp: h.stamp})
	h.ackedPopIDs[id] = true
	h.acked++
	h.mu.Unlock()
}

func (h *history) failPop() {
	h.mu.Lock()
	h.unackedPops++
	h.errors++
	h.mu.Unlock()
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

// pqdProc is one running daemon instance.
type pqdProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *strings.Builder
	reap   sync.Once
}

// startPQD launches pqd against walDir and waits for its listening line.
func startPQD(t *testing.T, bin, walDir string) *pqdProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-wal-dir", walDir,
		"-wal-mode", "sync",
		"-wal-segment-bytes", "32768",
		"-wal-snapshot-segments", "2",
		"-drain-window", "50ms",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &pqdProc{cmd: cmd, stderr: &strings.Builder{}}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting pqd: %v", err)
	}
	t.Cleanup(p.kill) // a failing test must not leave its daemon running
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening addr="); ok {
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

// kill delivers SIGKILL — the crash under test — and reaps the process.
// Safe to call from the kill timer and the test goroutine concurrently:
// Cmd.Wait is not, so the reap runs once and late callers block on it.
func (p *pqdProc) kill() {
	p.reap.Do(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
}

// load hammers the daemon with a mixed push/pop workload from several
// workers until the connections die (the kill) or the duration elapses.
// Half the workers run with the client-side op coalescer on, so every
// cycle crashes the daemon mid-batch as well as mid-frame: a WAL commit
// that covered only part of an applied batch, or an ACK fan-out that
// outran durability, shows up as a conservation failure here.
func load(h *history, ids *atomic.Uint64, addr string, d time.Duration, seed int64) {
	const workers = 4
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			cfg := client.Config{Addr: addr, Retries: -1}
			if w%2 == 0 {
				cfg.BatchMax = 16
				cfg.BatchLinger = 100 * time.Microsecond
			}
			cl, err := client.Dial(cfg)
			if err != nil {
				return // daemon already dead
			}
			defer cl.Close()
			if cfg.BatchMax > 0 {
				loadBatched(h, ids, cl, rng, deadline)
			} else {
				loadSync(h, ids, cl, rng, deadline)
			}
		}(w)
	}
	wg.Wait()
}

// loadSync issues one synchronous op at a time, the single-frame data plane.
func loadSync(h *history, ids *atomic.Uint64, cl *client.Client, rng *rand.Rand, deadline time.Time) {
	for time.Now().Before(deadline) {
		if rng.Intn(10) < 7 {
			id := ids.Add(1)
			key := int64(rng.Intn(1000))
			if err := cl.Insert(key, []byte(strconv.FormatUint(id, 10))); err != nil {
				h.failPush(id, key)
				return
			}
			h.ackPush(id, key)
		} else {
			key, v, found, err := cl.DeleteMin()
			if err != nil {
				h.failPop()
				return
			}
			if !found {
				continue
			}
			id, perr := strconv.ParseUint(string(v), 10, 64)
			if perr != nil {
				panic(fmt.Sprintf("crashtest: delivered value %q is not an id", v))
			}
			h.ackPop(id, key)
		}
	}
}

// loadBatched keeps a window of async ops in flight so the client coalescer
// actually packs OpBatch frames; every completion is reconciled the same way
// as the sync path, and the whole window is accounted when the crash lands.
func loadBatched(h *history, ids *atomic.Uint64, cl *client.Client, rng *rand.Rand, deadline time.Time) {
	type slot struct {
		p      *client.Pending
		insert bool
		id     uint64
		key    int64
	}
	var pend []slot
	flush := func() bool {
		ok := true
		for _, s := range pend {
			res, err := s.p.Wait()
			switch {
			case err != nil && s.insert:
				h.failPush(s.id, s.key)
				ok = false
			case err != nil:
				h.failPop()
				ok = false
			case s.insert:
				h.ackPush(s.id, s.key)
			case res.Found:
				id, perr := strconv.ParseUint(string(res.Value), 10, 64)
				if perr != nil {
					panic(fmt.Sprintf("crashtest: delivered value %q is not an id", res.Value))
				}
				h.ackPop(id, res.Priority)
			}
		}
		pend = pend[:0]
		return ok
	}
	const window = 32
	for time.Now().Before(deadline) {
		var s slot
		var err error
		if rng.Intn(10) < 7 {
			s.insert = true
			s.id = ids.Add(1)
			s.key = int64(rng.Intn(1000))
			s.p, err = cl.InsertAsync(s.key, []byte(strconv.FormatUint(s.id, 10)))
		} else {
			s.p, err = cl.DeleteMinAsync()
		}
		if err != nil {
			if s.insert {
				h.failPush(s.id, s.key)
			} else {
				h.failPop()
			}
			flush()
			return
		}
		pend = append(pend, s)
		if len(pend) == window && !flush() {
			return
		}
	}
	flush()
}

// TestCrashRecovery is the acceptance gate: N kill -9/recover cycles with
// zero ACKed-item loss, zero duplicates, and zero recovery panics.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("crash injection spawns real processes; skipped in -short")
	}
	bin := buildPQD(t)
	walDir := t.TempDir()
	h := newHistory()
	var ids atomic.Uint64

	loadDur := time.Duration(*crashLoadMS) * time.Millisecond
	for cycle := 0; cycle < *crashCycles; cycle++ {
		p := startPQD(t, bin, walDir)
		killAfter := loadDur/2 + time.Duration(cycle%5)*loadDur/8
		go func() {
			time.Sleep(killAfter)
			p.kill()
		}()
		load(h, &ids, p.addr, loadDur+time.Second, int64(cycle)*997)
		p.kill() // idempotent: reap if the timer already fired
		if s := p.stderr.String(); strings.Contains(s, "panic") {
			t.Fatalf("cycle %d: daemon panicked:\n%s", cycle, s)
		}
	}

	// Final incarnation: recover once more and drain to empty over a clean
	// connection.
	p := startPQD(t, bin, walDir)
	cl, err := client.Dial(client.Config{Addr: p.addr})
	if err != nil {
		t.Fatal(err)
	}
	var remaining []quality.Element
	for {
		key, v, found, err := cl.DeleteMin()
		if err != nil {
			t.Fatalf("final drain: %v", err)
		}
		if !found {
			break
		}
		id, perr := strconv.ParseUint(string(v), 10, 64)
		if perr != nil {
			t.Fatalf("final drain delivered %q, not an id", v)
		}
		remaining = append(remaining, quality.Element{Key: key, ID: id})
	}
	cl.Close()
	p.cmd.Process.Signal(syscall.SIGTERM)
	p.cmd.Wait()
	if s := p.stderr.String(); strings.Contains(s, "panic") {
		t.Fatalf("final daemon panicked:\n%s", s)
	}

	// Reconcile: an unACKed insert whose element materialized really
	// happened — synthesize its event (stamp 0 sorts it before everything,
	// which conservation analysis is insensitive to).
	h.mu.Lock()
	events := h.events
	materialized := map[uint64]bool{}
	for id := range h.ackedPopIDs {
		materialized[id] = true
	}
	for _, e := range remaining {
		materialized[e.ID] = true
	}
	synthesized := 0
	for id, key := range h.unackedPush {
		if materialized[id] {
			events = append(events, quality.Event{Insert: true, Key: key, ID: id, OK: true, Stamp: 0})
			synthesized++
		}
	}
	maxLost := h.unackedPops
	t.Logf("cycles=%d acked=%d conn_errors=%d unacked_pushes=%d (materialized=%d) unacked_pops=%d remaining=%d",
		*crashCycles, h.acked, h.errors, len(h.unackedPush), synthesized, maxLost, len(remaining))
	h.mu.Unlock()

	rep, err := quality.AnalyzeCrash(events, remaining, maxLost)
	if err != nil {
		t.Fatalf("conservation across %d crashes: %v", *crashCycles, err)
	}
	if rep.Lost > maxLost {
		t.Fatalf("lost %d elements with allowance %d", rep.Lost, maxLost)
	}
	t.Logf("verified: %s lost=%d/%d", rep, rep.Lost, maxLost)

	// Sanity: the harness must actually have exercised the daemon.
	if rep.Inserts == 0 || ids.Load() == 0 {
		t.Fatal("harness recorded no load")
	}

	// The final incarnation's recovery swept any temp snapshot a kill
	// stranded, and its clean shutdown must not have left one of its own.
	ents, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temp file %s left after recovery and clean shutdown", e.Name())
		}
	}
}
