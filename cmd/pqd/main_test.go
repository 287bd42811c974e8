package main

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/backends"
	"skipqueue/internal/client"
)

// addrWriter captures run()'s stdout and delivers the announced listen
// address as soon as it appears.
type addrWriter struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	addrCh chan string
	sent   bool
}

var addrRe = regexp.MustCompile(`listening addr=(\S+)`)

func (w *addrWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if m := addrRe.FindSubmatch(w.buf.Bytes()); m != nil {
			w.sent = true
			w.addrCh <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *addrWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// daemon is one in-process run of pqd.
type daemon struct {
	addr   string
	admin  string // empty without -admin
	out    *addrWriter
	stderr bytes.Buffer
	exitc  chan int
}

// boot starts run on an ephemeral data port with args added and waits for
// the listening line.
func boot(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{out: &addrWriter{addrCh: make(chan string, 1)}, exitc: make(chan int, 1)}
	go func() { d.exitc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), d.out, &d.stderr) }()
	select {
	case d.addr = <-d.out.addrCh:
	case <-time.After(5 * time.Second):
		t.Fatalf("daemon never announced its address; stderr: %s", d.stderr.String())
	}
	// The admin line is printed before the data-plane line, so it is
	// already in the buffer.
	if m := adminRe.FindStringSubmatch(d.out.String()); m != nil {
		d.admin = m[1]
	} else if slices.Contains(args, "-admin") {
		t.Fatalf("daemon never announced its admin address:\n%s", d.out.String())
	}
	return d
}

// wait requires the daemon to exit 0 within ten seconds.
func (d *daemon) wait(t *testing.T) {
	t.Helper()
	select {
	case code := <-d.exitc:
		if code != 0 {
			t.Fatalf("run exited %d, want 0; stderr: %s\nstdout: %s", code, d.stderr.String(), d.out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// stop delivers SIGTERM and waits for a clean exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.wait(t)
}

// TestRunDrainsOnSIGTERM drives the real daemon entry point in-process for
// every backend: start it, serve traffic, deliver an actual SIGTERM, and
// require a clean drain (exit 0, late ops answered SHUTDOWN or refused,
// listener gone).
func TestRunDrainsOnSIGTERM(t *testing.T) {
	for _, row := range backends.Rows {
		t.Run(row.Name, func(t *testing.T) {
			d := boot(t, "-backend", row.Name, "-drain-window", "100ms", "-drain-timeout", "5s",
				"-admin", "127.0.0.1:0", "-flight", "256")
			if code, _ := adminGet(t, d.admin, "/healthz"); code != 200 {
				t.Fatalf("healthz before drain = %d, want 200", code)
			}

			cl, err := client.Dial(client.Config{Addr: d.addr, Retries: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				if err := cl.Insert(int64(i), []byte("x")); err != nil {
					t.Fatalf("Insert %d: %v", i, err)
				}
			}
			if n, err := cl.Len(); err != nil || n != 50 {
				t.Fatalf("Len = %d, %v; want 50", n, err)
			}

			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}

			// During the drain window, ops are answered SHUTDOWN (typed) or
			// the connection ends; either way nothing hangs.
			drainDeadline := time.Now().Add(3 * time.Second)
			for time.Now().Before(drainDeadline) {
				err := cl.Ping()
				if err == nil {
					continue // signal not yet observed by the server
				}
				if errors.Is(err, client.ErrShutdown) || errors.Is(err, client.ErrConn) || errors.Is(err, client.ErrBusy) {
					break
				}
				t.Fatalf("Ping during drain: unexpected error %v", err)
			}

			// The admin surface answers 503 through the drain and is retired
			// only after the data plane has answered its last frame.
			sawDraining := false
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				code, err := adminGetErr(d.admin, "/healthz")
				if err != nil {
					break // admin listener retired after the drain
				}
				if code == 503 {
					sawDraining = true
				}
				time.Sleep(2 * time.Millisecond)
			}
			if !sawDraining {
				t.Error("healthz never reported draining during the drain window")
			}

			d.wait(t)
			if _, err := adminGetErr(d.admin, "/healthz"); err == nil {
				t.Fatal("admin listener still serving after exit")
			}
			for _, want := range []string{"draining", "drained", "flight: anomalies="} {
				if !strings.Contains(d.out.String(), want) {
					t.Fatalf("stdout missing %q:\n%s", want, d.out.String())
				}
			}
		})
	}
}

// TestRunBadBackend: an unknown backend is a usage error (exit 2) whose
// message names every backend there is.
func TestRunBadBackend(t *testing.T) {
	// lockfree and elimsharded name no backend: neither the lock-free
	// skiplist nor elimination over the sharded queue is served.
	for _, name := range []string{"nope", "lockfree", "elimsharded"} {
		t.Run(name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run([]string{"-backend", name}, &out, &errOut); code != 2 {
				t.Fatalf("exit = %d, want 2", code)
			}
			if !strings.Contains(errOut.String(), "unknown backend") {
				t.Fatalf("stderr missing backend error: %s", errOut.String())
			}
			for _, row := range backends.Rows {
				if !strings.Contains(errOut.String(), row.Name) {
					t.Errorf("backend error does not name %q: %s", row.Name, errOut.String())
				}
			}
		})
	}
}

// TestRunAllBackends: every backend -backend can select constructs with
// its probes on and serves at least one op.
func TestRunAllBackends(t *testing.T) {
	for _, r := range backends.Rows {
		t.Run(r.Name, func(t *testing.T) {
			row, err := backends.Lookup(r.Name)
			if err != nil {
				t.Fatal(err)
			}
			b := row.New(backends.Params{Opts: []skipqueue.Option{skipqueue.WithMetrics()}})
			b.Push(5, []byte("v"))
			if p, v, ok := b.Pop(); !ok || p != 5 || string(v) != "v" {
				t.Fatalf("Pop = %d/%q/%v", p, v, ok)
			}
			if !b.Snapshot().Enabled {
				t.Fatal("metrics snapshot not enabled")
			}
		})
	}
}

// TestBackendParams: every row that reads a size in backends.Params
// honors it, and its zero default resolves to a usable size. Each size
// must reach at least one row.
func TestBackendParams(t *testing.T) {
	params := []struct {
		name   string // the size, as the subtests label it
		field  string // in backends.Params
		method string // the built queue's size accessor
		min    int    // the zero default resolves to at least this
	}{
		{"shards", "Shards", "Shards", 2},
		{"elim-slots", "ElimSlots", "Slots", 4},
		{"spray-k", "SprayK", "K", 2},
	}
	size := func(q backends.Queue, method string) (int, bool) {
		m := reflect.ValueOf(q).MethodByName(method)
		if !m.IsValid() {
			return 0, false
		}
		return int(m.Call(nil)[0].Int()), true
	}
	reached := map[string]bool{}
	for _, row := range backends.Rows {
		for _, pm := range params {
			def, ok := size(row.New(backends.Params{}), pm.method)
			if !ok {
				continue
			}
			reached[pm.field] = true
			t.Run(row.Name+"/"+pm.name, func(t *testing.T) {
				if def < pm.min {
					t.Fatalf("%s 0 built %d, want >= %d", pm.field, def, pm.min)
				}
				var p backends.Params
				reflect.ValueOf(&p).Elem().FieldByName(pm.field).SetInt(6)
				if got, _ := size(row.New(p), pm.method); got != 6 {
					t.Fatalf("%s 6 built %d", pm.field, got)
				}
			})
		}
	}
	for _, pm := range params {
		if !reached[pm.field] {
			t.Errorf("no backend reads Params.%s", pm.field)
		}
	}
}

// TestBenchmarkCommandLines: the flag sets the benchmark module (bench/)
// starts pqd with all parse. -version makes run return after the parse,
// before it opens anything, so a flag the benchmark passes and pqd no
// longer defines fails here rather than in every net-* run.
func TestBenchmarkCommandLines(t *testing.T) {
	for name, args := range map[string][]string{
		// bench/netprod.go prodArgs
		"net-prod": {"-addr", "127.0.0.1:0", "-backend", "skipqueue",
			"-wal-dir", t.TempDir(), "-wal-mode", "sync",
			"-lease", "-admin", "127.0.0.1:0", "-flight", "4096"},
		// bench/netsingle.go startNetSingle, traced
		"net-single": {"-addr", "127.0.0.1:0", "-backend", "skipqueue", "-lease", "-lease-ttl", "30s",
			"-admin", "127.0.0.1:0"},
		// bench/ladder.go's server and client rungs
		"ladder": {"-addr", "127.0.0.1:0", "-backend", "skipqueue", "-lease"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, "-version"), &stdout, &stderr); code != 0 {
			t.Errorf("%s: pqd %s exited %d: %s", name, strings.Join(args, " "), code, stderr.String())
		}
	}
}
