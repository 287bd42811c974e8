// Package admin is pqd's operational HTTP surface: one mux serving
// Prometheus metrics, health, flight-recorder dumps, expvar, and pprof.
//
// Endpoints:
//
//   - /metrics — Prometheus text exposition (obs.WriteProm) of every
//     configured snapshot source, each name prefixed "pqd_". A scrape
//     changes no state: the scraper rates the _total counters itself.
//   - /healthz — "ok" with 200 while serving, "draining" with 503 once a
//     graceful shutdown began. Load balancers key off this to stop routing
//     before the listener actually closes.
//   - /buildinfo — JSON build identity (module version, VCS revision,
//     toolchain) read from the binary's embedded build metadata.
//   - /debug/flight — JSON dump of every configured flight recorder's ring
//     plus the last anomaly capture of each (see internal/flight).
//   - /debug/vars — the standard expvar JSON.
//   - /debug/pprof/... — the standard runtime profiles.
//
// The mux is explicit: nothing registers on http.DefaultServeMux, so a
// process embedding this package leaks no admin handlers onto other
// listeners.
package admin

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/obs"
)

// Config wires the admin surface to the process it describes. All fields
// are optional; nil sources serve empty (but well-formed) responses.
type Config struct {
	// Snapshots is called per /metrics scrape for the current probe state.
	Snapshots func() []obs.Snapshot
	// Draining reports whether a graceful shutdown has begun (/healthz).
	Draining func() bool
	// Flight are the recorders /debug/flight dumps, in order. Nil entries
	// are skipped, so callers can pass optional recorders unconditionally.
	Flight []*flight.Recorder
}

// Server serves the admin surface on one listener. Construct with New.
type Server struct {
	cfg Config
	mux *http.ServeMux
	srv *http.Server

	mu sync.Mutex // guards srv
}

// New builds the mux; call Serve (or mount Handler yourself).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.metrics)
	s.mux.HandleFunc("/healthz", s.healthz)
	s.mux.HandleFunc("/buildinfo", s.buildinfo)
	s.mux.HandleFunc("/debug/flight", s.flight)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the admin mux, for embedding in another server.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves the admin surface on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.srv == nil {
		s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	}
	srv := s.srv
	s.mu.Unlock()
	return srv.Serve(ln)
}

// Shutdown stops the admin listener, letting in-flight scrapes finish
// within ctx. It is safe to call before Serve and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// metrics renders the Prometheus exposition of the current snapshots.
func (s *Server) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if s.cfg.Snapshots != nil {
		obs.WriteProm(w, "pqd", s.cfg.Snapshots()...)
	}
}

// healthz answers 200 "ok" while serving and 503 "draining" during
// shutdown, the convention drain-aware load balancers expect.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Draining != nil && s.cfg.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// FlightPayload is the /debug/flight response shape: every recorder's
// current ring plus the most recent anomaly capture of each.
type FlightPayload struct {
	Recorders []flight.Dump `json:"recorders"`
	Anomalies []flight.Dump `json:"anomalies,omitempty"`
}

func (s *Server) flight(w http.ResponseWriter, r *http.Request) {
	p := FlightPayload{Recorders: []flight.Dump{}}
	for _, fr := range s.cfg.Flight {
		if !fr.Enabled() {
			continue
		}
		p.Recorders = append(p.Recorders, fr.Snapshot())
		if d, ok := fr.LastAnomaly(); ok {
			p.Anomalies = append(p.Anomalies, d)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(p)
}
