package main

import (
	"bytes"
	"context"
	"net"
	"regexp"
	"strconv"
	"testing"
	"time"

	"skipqueue"
	"skipqueue/internal/lease"
	"skipqueue/internal/server"
)

// startServer boots internal/server in-process on an ephemeral loopback
// port. With a non-nil lcfg the backend is a lease table (returned for
// inspection); without one the lease opcodes answer StatusErr.
func startServer(t *testing.T, lcfg *lease.Config) (string, *lease.Table) {
	t.Helper()
	cfg := server.Config{Backend: skipqueue.NewPQ[[]byte]()}
	var tbl *lease.Table
	if lcfg != nil {
		tbl = lease.New(*lcfg, cfg.Backend)
		cfg.Backend = tbl
	}
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if tbl != nil {
			tbl.Close()
		}
	})
	return ln.Addr().String(), tbl
}

// field extracts the unsigned integer captured by re's first group.
func field(t *testing.T, out string, re *regexp.Regexp) uint64 {
	t.Helper()
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("output lacks %v:\n%s", re, out)
	}
	n, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var (
	opsRE       = regexp.MustCompile(`\bops=(\d+)`)
	errorsRE    = regexp.MustCompile(`\berrors=(\d+)`)
	abandonedRE = regexp.MustCompile(`abandoned (\d+) leases`)
)

// pqload runs the generator for 300ms against addr and returns its exit
// status and stdout.
func pqload(t *testing.T, addr string, extra ...string) (int, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := append([]string{"-addr", addr, "-conns", "2", "-workers", "4", "-duration", "300ms"}, extra...)
	code := run(args, &stdout, &stderr)
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, stdout.String()
}

// requireClean asserts what a healthy run guarantees on every schedule:
// exit 0, at least one operation, none failed. Nothing here reads a
// latency or a rate.
func requireClean(t *testing.T, code int, out string) {
	t.Helper()
	if code != 0 {
		t.Fatalf("exit = %d, want 0:\n%s", code, out)
	}
	if field(t, out, opsRE) == 0 {
		t.Fatalf("no operations completed:\n%s", out)
	}
	if n := field(t, out, errorsRE); n != 0 {
		t.Fatalf("errors = %d, want 0:\n%s", n, out)
	}
}

func TestRunClosedLoop(t *testing.T) {
	addr, _ := startServer(t, &lease.Config{})
	code, out := pqload(t, addr)
	requireClean(t, code, out)
}

func TestRunOpenLoop(t *testing.T) {
	addr, _ := startServer(t, &lease.Config{})
	code, out := pqload(t, addr, "-rate", "2000")
	requireClean(t, code, out)
}

// TestRunLeaseAbandonRedelivered: every lease the generator abandons is
// revoked by the server's expiry sweep and returned to the queue. The TTL
// is far above any pause between a live worker's PopLease and its Ack, so
// only abandoned leases ever expire and the two counts must agree exactly.
func TestRunLeaseAbandonRedelivered(t *testing.T) {
	addr, tbl := startServer(t, &lease.Config{TTL: time.Second, Tick: 5 * time.Millisecond})
	code, out := pqload(t, addr, "-lease", "-lease-abandon", "0.02")
	requireClean(t, code, out)
	abandoned := field(t, out, abandonedRE)

	deadline := time.Now().Add(30 * time.Second)
	for tbl.Outstanding() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d leases still outstanding long after their TTL", tbl.Outstanding())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tbl.Snapshot().Counter("expires"); got != abandoned {
		t.Fatalf("server expired %d leases, generator abandoned %d", got, abandoned)
	}
}

// TestRunExitsNonZeroOnOpErrors: against a server without a lease table
// every PopLease is answered StatusErr, so an all-consume lease run must
// count errors and exit non-zero.
func TestRunExitsNonZeroOnOpErrors(t *testing.T) {
	addr, _ := startServer(t, nil)
	code, out := pqload(t, addr, "-lease", "-mix", "0")
	if code == 0 {
		t.Fatalf("exit = 0 with failing operations:\n%s", out)
	}
	if ops, errs := field(t, out, opsRE), field(t, out, errorsRE); errs == 0 || errs != ops {
		t.Fatalf("ops=%d errors=%d, want every operation to fail:\n%s", ops, errs, out)
	}
}
