package admin

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/obs"
)

// get performs one request against the admin handler and returns status
// and body.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	b, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Result().StatusCode, string(b)
}

// TestMetricsEndpoint: counters expose cumulatively on every scrape, and
// a scrape changes no state: no rate gauges, and two scrapes with no
// activity between them are byte-identical.
func TestMetricsEndpoint(t *testing.T) {
	set := obs.NewSet("skipqueue.server")
	c := set.Counter("frames")
	c.Add(100)
	s := New(Config{Snapshots: func() []obs.Snapshot { return []obs.Snapshot{set.Snapshot()} }})

	code, body := get(t, s.Handler(), "/metrics")
	if code != 200 {
		t.Fatalf("first scrape status %d", code)
	}
	if !strings.Contains(body, "pqd_skipqueue_server_frames_total 100") {
		t.Fatalf("first scrape missing counter:\n%s", body)
	}

	c.Add(50)
	time.Sleep(5 * time.Millisecond) // a window a stateful handler could rate
	_, body = get(t, s.Handler(), "/metrics")
	if !strings.Contains(body, "pqd_skipqueue_server_frames_total 150") {
		t.Fatalf("second scrape wrong total:\n%s", body)
	}
	if strings.Contains(body, "_rate") {
		t.Fatalf("second scrape has rate gauges:\n%s", body)
	}
	if _, again := get(t, s.Handler(), "/metrics"); again != body {
		t.Fatalf("idle scrapes differ:\n%s\n---\n%s", body, again)
	}
}

// TestHealthz: flips from 200 ok to 503 draining with the state source.
func TestHealthz(t *testing.T) {
	var draining atomic.Bool
	s := New(Config{Draining: draining.Load})
	if code, body := get(t, s.Handler(), "/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthy = %d %q", code, body)
	}
	draining.Store(true)
	if code, body := get(t, s.Handler(), "/healthz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("draining = %d %q", code, body)
	}
}

// TestFlightEndpoint: recorders dump as JSON with their events and last
// anomaly; nil recorders are skipped.
func TestFlightEndpoint(t *testing.T) {
	fr := flight.New("server", 1, 8)
	fr.Record(flight.KServerRead, 42, 7)
	fr.Anomaly(flight.KBusyReject, 0, 3)
	s := New(Config{Flight: []*flight.Recorder{fr, nil}})

	code, body := get(t, s.Handler(), "/debug/flight")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var p FlightPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("payload does not decode: %v\n%s", err, body)
	}
	if len(p.Recorders) != 1 || p.Recorders[0].Name != "server" {
		t.Fatalf("recorders = %+v, want one named server", p.Recorders)
	}
	found := false
	for _, e := range p.Recorders[0].Events {
		if e.Kind == flight.KServerRead && e.Trace == 42 {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump lost the recorded event: %+v", p.Recorders[0].Events)
	}
	if len(p.Anomalies) != 1 {
		t.Fatalf("anomalies = %d, want 1", len(p.Anomalies))
	}
}

// TestDebugSurfaces: expvar and pprof are mounted on the explicit mux.
func TestDebugSurfaces(t *testing.T) {
	s := New(Config{})
	if code, body := get(t, s.Handler(), "/debug/vars"); code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("/debug/vars = %d %q", code, body[:min(len(body), 40)])
	}
	if code, _ := get(t, s.Handler(), "/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ := get(t, s.Handler(), "/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

// TestServeShutdown: the real listener serves scrapes and Shutdown stops
// it; Shutdown before Serve is a no-op.
func TestServeShutdown(t *testing.T) {
	if err := New(Config{}).Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}

	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("live healthz status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}

// TestBuildInfoEndpoint: /buildinfo serves the binary's build identity.
func TestBuildInfoEndpoint(t *testing.T) {
	s := New(Config{})
	code, body := get(t, s.Handler(), "/buildinfo")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	var bi BuildInfo
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if bi.GoVersion == "" || bi.OS == "" || bi.Arch == "" {
		t.Fatalf("missing runtime identity: %+v", bi)
	}
	if !strings.Contains(BuildInfoText(), bi.GoVersion) {
		t.Fatalf("BuildInfoText missing toolchain: %s", BuildInfoText())
	}
}
