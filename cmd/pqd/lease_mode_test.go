package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"skipqueue/internal/client"
)

// TestRunVersion: -version prints the build identity and exits 0 without
// opening any listener.
func TestRunVersion(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-version"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "go:") {
		t.Fatalf("version output missing toolchain line:\n%s", out.String())
	}
	if strings.Contains(out.String(), "listening") {
		t.Fatalf("-version started the daemon:\n%s", out.String())
	}
}

// TestRunLeaseMode boots the daemon with the lease protocol over a WAL,
// exercises a full grant/ack plus an in-flight lease, and requires the
// drain to nack the in-flight lease back so the element survives into
// the WAL's final snapshot.
func TestRunLeaseMode(t *testing.T) {
	dir := t.TempDir()
	d := boot(t, "-wal-dir", dir, "-lease",
		"-lease-ttl", "1h", // only the drain may release the in-flight lease
		"-lease-tick", "5ms", "-max-deliveries", "5",
		"-drain-window", "100ms", "-drain-timeout", "5s", "-admin", "127.0.0.1:0")
	if !strings.Contains(d.out.String(), "pqd: lease: ttl=1h0m0s") || !strings.Contains(d.out.String(), "durable=true") {
		t.Fatalf("missing lease boot line:\n%s", d.out.String())
	}

	cl, err := client.Dial(client.Config{Addr: d.addr, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Insert(1, []byte("acked")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Insert(2, []byte("in-flight")); err != nil {
		t.Fatal(err)
	}
	if err := cl.InsertDelay(3, time.Hour, []byte("parked")); err != nil {
		t.Fatal(err)
	}
	l, found, err := cl.PopLease(0)
	if err != nil || !found || string(l.Value) != "acked" {
		t.Fatalf("PopLease = %v/%v/%v", l, found, err)
	}
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
	if _, found, err = cl.PopLease(0); err != nil || !found {
		t.Fatalf("second PopLease = %v/%v", found, err)
	}
	// The second lease stays outstanding across the drain.

	d.stop(t)
	if !strings.Contains(d.out.String(), "pqd: lease: closed outstanding=0") {
		t.Fatalf("drain did not release the in-flight lease:\n%s", d.out.String())
	}

	// Restart on the same WAL: the acked element is gone for good; the
	// nacked-back element and the parked delayed element both survived.
	d = boot(t, "-wal-dir", dir, "-lease", "-lease-tick", "5ms", "-drain-window", "50ms")
	cl2, err := client.Dial(client.Config{Addr: d.addr, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	l, found, err = cl2.PopLease(0)
	if err != nil || !found || string(l.Value) != "in-flight" {
		t.Fatalf("recovered PopLease = %v/%v/%v, want the nacked-back element", l, found, err)
	}
	if err := l.Ack(); err != nil {
		t.Fatal(err)
	}
	// Only the hour-delayed element remains, still invisible.
	if _, found, err := cl2.PopLease(0); err != nil || found {
		t.Fatalf("immature element visible after recovery: %v/%v", found, err)
	}
	d.stop(t)
}
