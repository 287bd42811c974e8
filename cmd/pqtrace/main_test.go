package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"skipqueue"
	"skipqueue/internal/admin"
	"skipqueue/internal/client"
	"skipqueue/internal/flight"
	"skipqueue/internal/server"
)

// attribution mirrors pqtrace's -json output shape.
type attribution struct {
	Total      int           `json:"total"`
	Attributed int           `json:"attributed"`
	Rate       float64       `json:"rate"`
	ClientOnly int           `json:"client_only"`
	ServerOnly int           `json:"server_only"`
	Partial    int           `json:"partial"`
	Spans      []flight.Span `json:"spans"`
}

// runTraced boots a traced server in-process, drives total traced requests
// through a traced client, and returns both dumps.
func runTraced(t *testing.T, total int) (clientDump, serverDump flight.Dump) {
	t.Helper()
	// Each traced request leaves 3 server events (read/apply/flush) and 2
	// client events (send/recv); size the rings so nothing is overwritten.
	sfr := flight.New("server", 1, 4*total)
	cfr := flight.New("client", 1, 4*total)
	srv := server.New(server.Config{Backend: skipqueue.NewPQ[[]byte](), Flight: sfr})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	cl, err := client.Dial(client.Config{Addr: ln.Addr().String(), Conns: 4, Flight: cfr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers = 8
	per := total / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			for i := 0; i < per/2; i++ {
				if err := cl.Insert(base+int64(i), []byte("t")); err != nil {
					t.Error(err)
					return
				}
				if _, _, _, err := cl.DeleteMin(); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(w) * int64(per))
	}
	wg.Wait()
	return cfr.Snapshot(), sfr.Snapshot()
}

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAttributes10K is the acceptance run: 10,000 traced requests, merged
// by pqtrace, must attribute >= 95% with no orphan trace IDs on either
// side. The server dump is fed both as a raw file and through a live
// /debug/flight-shaped HTTP endpoint.
func TestAttributes10K(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-request acceptance run")
	}
	const total = 10000
	cd, sd := runTraced(t, total)

	dir := t.TempDir()
	cpath := filepath.Join(dir, "client.json")
	spath := filepath.Join(dir, "server.json")
	writeJSON(t, cpath, cd)
	writeJSON(t, spath, admin.FlightPayload{Recorders: []flight.Dump{sd, {Name: "structure"}}})

	var out, errOut bytes.Buffer
	if code := run([]string{"-client", cpath, "-server", spath, "-require", "0.95", "-json"}, &out, &errOut); code != 0 {
		t.Fatalf("pqtrace exited %d: %s", code, errOut.String())
	}
	var at attribution
	if err := json.Unmarshal(out.Bytes(), &at); err != nil {
		t.Fatalf("output not JSON: %v\n%s", err, out.String())
	}
	if at.Total != total {
		t.Fatalf("Total = %d, want %d", at.Total, total)
	}
	if at.Rate < 0.95 {
		t.Fatalf("attribution rate %.4f < 0.95", at.Rate)
	}
	if at.ClientOnly != 0 || at.ServerOnly != 0 {
		t.Fatalf("orphan traces: clientOnly=%d serverOnly=%d", at.ClientOnly, at.ServerOnly)
	}
	// Server may exceed EndToEnd: the server stamps its flush after the
	// socket write returns, and the client can have decoded the reply by
	// then. Attribute clamps Network to zero for those spans.
	for _, s := range at.Spans {
		if s.EndToEnd <= 0 || s.Queue < 0 || s.Structure < 0 || s.Flush < 0 ||
			s.Queue+s.Structure+s.Flush != s.Server ||
			s.Network != max(0, s.EndToEnd-s.Server) {
			t.Fatalf("implausible span %+v", s)
		}
	}

	// The table path over a live /debug/flight-shaped URL.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(admin.FlightPayload{Recorders: []flight.Dump{sd}})
	}))
	defer ts.Close()
	out.Reset()
	if code := run([]string{"-client", cpath, "-server", ts.URL, "-require", "0.95"}, &out, &errOut); code != 0 {
		t.Fatalf("pqtrace (URL) exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"span", "network", "server.queue", "structure", "end-to-end"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, out.String())
		}
	}
}

// TestRequireGate: an empty server dump attributes nothing, so -require
// fails the run with exit 1; without the gate the same merge exits 0.
func TestRequireGate(t *testing.T) {
	cd, _ := runTraced(t, 100)
	dir := t.TempDir()
	cpath := filepath.Join(dir, "client.json")
	spath := filepath.Join(dir, "server.json")
	writeJSON(t, cpath, cd)
	writeJSON(t, spath, flight.Dump{Name: "server"})

	var out, errOut bytes.Buffer
	if code := run([]string{"-client", cpath, "-server", spath, "-require", "0.95"}, &out, &errOut); code != 1 {
		t.Fatalf("gated run exited %d, want 1; stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "below required") {
		t.Fatalf("stderr missing gate message: %s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-client", cpath, "-server", spath}, &out, &errOut); code != 0 {
		t.Fatalf("ungated run exited %d: %s", code, errOut.String())
	}
}

// TestBadInputs: usage and load errors are distinguishable exit codes.
func TestBadInputs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("missing flags: exit %d, want 2", code)
	}
	if code := run([]string{"-client", "/nonexistent", "-server", "/nonexistent"}, &out, &errOut); code != 1 {
		t.Fatalf("missing files: exit %d, want 1", code)
	}

	// A payload without a "server" recorder is a load error, not a panic.
	dir := t.TempDir()
	cpath := filepath.Join(dir, "client.json")
	spath := filepath.Join(dir, "server.json")
	writeJSON(t, cpath, flight.Dump{Name: "client"})
	writeJSON(t, spath, admin.FlightPayload{Recorders: []flight.Dump{{Name: "structure"}}})
	errOut.Reset()
	if code := run([]string{"-client", cpath, "-server", spath}, &out, &errOut); code != 1 {
		t.Fatalf("no server recorder: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "no recorder named") {
		t.Fatalf("stderr missing recorder error: %s", errOut.String())
	}
}
