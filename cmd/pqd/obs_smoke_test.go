package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"skipqueue/internal/admin"
	"skipqueue/internal/client"
	"skipqueue/internal/flight"
)

var adminRe = regexp.MustCompile(`admin addr=(\S+)`)

// adminGetErr scrapes one admin endpoint, returning the transport error
// (listener down) instead of failing the test.
func adminGetErr(addr, path string) (int, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// adminGet scrapes one admin endpoint and returns status and body.
func adminGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// promLine validates one exposition line: comment, or `name{labels} value`.
var promLine = regexp.MustCompile(`^(#.*|[a-zA-Z_][a-zA-Z0-9_]*(\{[^}]*\})? [-+]?[0-9.eE+Inf]+)$`)

// scrapeGolden scrapes /metrics and requires well-formed exposition lines,
// every metric name listed in testdata/<golden>, and each line in want.
func scrapeGolden(t *testing.T, adminAddr, golden string, want ...string) {
	t.Helper()
	code, body := adminGet(t, adminAddr, "/metrics")
	if code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	names, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append(strings.Fields(string(names)), want...) {
		if !strings.Contains(body, name) {
			t.Errorf("exposition missing %q", name)
		}
	}
	if t.Failed() {
		t.Fatalf("full exposition:\n%s", body)
	}
}

// TestObsSmoke boots the real daemon in-process with the full
// observability surface on, drives traced traffic through a real client,
// and validates every admin endpoint: /metrics against the golden metric
// catalog, /healthz, and /debug/flight span content.
func TestObsSmoke(t *testing.T) {
	d := boot(t, "-admin", "127.0.0.1:0", "-flight", "1024", "-drain-window", "50ms",
		"-wal-dir", t.TempDir(), "-lease")

	cfr := flight.New("client", 0, 1024)
	cl, err := client.Dial(client.Config{Addr: d.addr, Flight: cfr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const ops = 200
	for i := 0; i < ops; i++ {
		if err := cl.Insert(int64(i), []byte("smoke")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for i := 0; i < ops; i++ {
		if _, _, found, err := cl.DeleteMin(); err != nil || !found {
			t.Fatalf("DeleteMin %d: found=%v err=%v", i, found, err)
		}
	}
	// One lease round trip so the skipqueue.lease probes carry traffic.
	if err := cl.Insert(1, []byte("leased")); err != nil {
		t.Fatal(err)
	}
	l, found, err := cl.PopLease(0)
	if err != nil || !found {
		t.Fatalf("PopLease: found=%v err=%v", found, err)
	}
	if err := l.Ack(); err != nil {
		t.Fatalf("Ack: %v", err)
	}

	if code, body := adminGet(t, d.admin, "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz = %d %q", code, body)
	}
	scrapeGolden(t, d.admin, "metrics.golden")

	// /debug/flight: both recorders present, server spans recorded for the
	// traced traffic.
	_, fbody := adminGet(t, d.admin, "/debug/flight")
	var p admin.FlightPayload
	if err := json.Unmarshal([]byte(fbody), &p); err != nil {
		t.Fatalf("flight payload does not decode: %v", err)
	}
	names := map[string]int{}
	reads := 0
	for _, rec := range p.Recorders {
		names[rec.Name]++
		for _, e := range rec.Events {
			if e.Kind == flight.KServerRead {
				reads++
			}
		}
	}
	if names["server"] != 1 || names["structure"] != 1 {
		t.Fatalf("recorders = %v, want server and structure", names)
	}
	if reads == 0 {
		t.Fatal("no server.read events recorded for traced traffic")
	}

	// /debug/pprof and /debug/vars ride the same mux.
	if code, _ := adminGet(t, d.admin, "/debug/pprof/"); code != 200 {
		t.Fatalf("pprof status %d", code)
	}
	if code, body := adminGet(t, d.admin, "/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars = %d, missing memstats", code)
	}

	cl.Close()
	d.stop(t)
	// The WAL and lease boot and drain lines bracket the run.
	for _, want := range []string{"pqd: wal: recovered", "pqd: wal: closed",
		"pqd: lease: ttl=", "pqd: lease: closed"} {
		if !strings.Contains(d.out.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, d.out.String())
		}
	}
}

// TestObsSmokeSpray is the spray backend's slice of the observability
// smoke: boot the daemon with -backend spray, drive real traffic, and
// require every metric in testdata/metrics_spray.golden — the published
// spray catalog (spray.walks, spray.collisions, claim.retries,
// scan.fallbacks, scan.pops) merged with the core
// substrate's probes under the skipqueue.spray set.
func TestObsSmokeSpray(t *testing.T) {
	d := boot(t, "-admin", "127.0.0.1:0", "-backend", "spray", "-spray-k", "4",
		"-flight", "1024", "-drain-window", "50ms")

	cl, err := client.Dial(client.Config{Addr: d.addr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const ops = 200
	for i := 0; i < ops; i++ {
		if err := cl.Insert(int64(i%37), []byte("spray-smoke")); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for i := 0; i < ops; i++ {
		if _, _, found, err := cl.DeleteMin(); err != nil || !found {
			t.Fatalf("DeleteMin %d: found=%v err=%v", i, found, err)
		}
	}
	// One extra pop drains into the EMPTY fallback so pop.empties moves.
	if _, _, found, err := cl.DeleteMin(); err != nil || found {
		t.Fatalf("drained queue: found=%v err=%v", found, err)
	}

	// The traffic above ran a real workload, so the scan path must have
	// delivered every element and certified the final EMPTY.
	scrapeGolden(t, d.admin, "metrics_spray.golden",
		"pqd_skipqueue_spray_scan_pops_total 200",
		"pqd_skipqueue_spray_pop_empties_total 1")

	cl.Close()
	d.stop(t)
}
