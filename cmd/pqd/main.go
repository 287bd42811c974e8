// Command pqd is the priority-queue daemon: it serves one queue backend
// over TCP using the frame protocol of internal/wire (see docs/SERVER.md
// for the protocol and operational semantics).
//
// -backend names one row of internal/backends, the table of the
// repository's queue families (default skipqueue, the paper's strict
// SkipQueue); -shards, -elim-slots and -spray-k tune the rows that use
// them.
//
// Backpressure: -max-conns bounds concurrent connections (excess gets one
// BUSY frame), -max-inflight bounds frames applied per connection between
// response flushes.
//
// Observability: -admin serves the operational HTTP surface on its own
// listener (see internal/admin and docs/OBSERVABILITY.md) — /metrics in
// Prometheus text format, /healthz for drain-aware load balancing,
// /debug/flight for flight-recorder dumps, /debug/vars (Go's runtime
// memstats) and /debug/pprof. -flight sizes the per-shard flight-recorder
// rings (0 = off) and -slo sets the per-frame latency budget whose breach
// captures an anomaly dump.
//
// On SIGTERM or SIGINT pqd drains: it stops accepting, answers frames
// already received normally, replies SHUTDOWN to frames arriving during
// the drain window, then closes connections and exits 0. The admin
// listener answers /healthz with 503 from the first moment of the drain
// and is shut down only after the data plane has answered its last frame,
// so the final drain state remains scrapeable.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"skipqueue"
	"skipqueue/internal/admin"
	"skipqueue/internal/backends"
	"skipqueue/internal/flight"
	"skipqueue/internal/lease"
	"skipqueue/internal/multiset"
	"skipqueue/internal/obs"
	"skipqueue/internal/server"
	"skipqueue/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, factored out so tests can drive the daemon —
// including its signal handling — in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pqd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:9400", "TCP listen address")
		backendName = fs.String("backend", "skipqueue", "queue backend: "+backends.Names())
		shards      = fs.Int("shards", 0, "shard count for the sharded backends (0 = two per GOMAXPROCS)")
		elimSlots   = fs.Int("elim-slots", 0, "exchanger slots for the elim backends (0 = one per core)")
		sprayK      = fs.Int("spray-k", 0, "contention width the spray backend shapes its walk for (0 = GOMAXPROCS)")
		maxConns    = fs.Int("max-conns", server.DefaultMaxConns, "max concurrent connections; excess is refused with BUSY")
		maxInflight = fs.Int("max-inflight", server.DefaultMaxInflight, "max frames applied per connection between response flushes")
		drainWindow = fs.Duration("drain-window", server.DefaultDrainWindow, "how long a drain keeps answering late frames with SHUTDOWN")
		drainWait   = fs.Duration("drain-timeout", 5*time.Second, "total shutdown budget before connections are force-closed")
		adminAddr   = fs.String("admin", "", "serve the admin surface (/metrics, /healthz, /debug/flight, /debug/pprof, /debug/vars) on this address and publish the backend's probe set there")
		flightSlots = fs.Int("flight", 0, "flight-recorder ring slots per shard (0 = recorder off)")
		slo         = fs.Duration("slo", 0, "per-frame server latency budget; a traced frame exceeding it captures an anomaly dump (0 = off)")
		walDir      = fs.String("wal-dir", "", "write-ahead-log directory; enables durability (empty = no WAL, in-memory only)")
		walMode     = fs.String("wal-mode", "sync", "WAL durability mode: sync (ACK after fsync) or async (ACK immediately, fsync in background)")
		walSyncIvl  = fs.Duration("wal-sync-interval", wal.DefaultSyncInterval, "async mode only: max time appended WAL records wait for their background fsync (sync mode commits flush their own batch)")
		walSegBytes = fs.Int64("wal-segment-bytes", wal.DefaultSegmentBytes, "WAL segment rotation threshold in bytes")
		walSnapSegs = fs.Int("wal-snapshot-segments", 0, "segments retained before a rotation triggers snapshot compaction (0 = default 4, negative = never)")
		leaseOn     = fs.Bool("lease", false, "enable the at-least-once lease protocol (PopLease/Ack/Nack/Extend/InsertDelay)")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "default lease duration when the client does not request one")
		leaseTick   = fs.Duration("lease-tick", 10*time.Millisecond, "minimum gap between lease expiry sweeps")
		maxDeliver  = fs.Int("max-deliveries", 0, "deliveries before an unacked element is dead-lettered (0 = never)")
		version     = fs.Bool("version", false, "print build information and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprint(stdout, admin.BuildInfoText())
		return 0
	}

	var serverFR, structFR *flight.Recorder
	if *flightSlots > 0 {
		serverFR = flight.New("server", 0, *flightSlots)
		structFR = flight.New("structure", 0, *flightSlots)
	}
	row, err := backends.Lookup(*backendName)
	if err != nil {
		fmt.Fprintf(stderr, "pqd: %v\n", err)
		return 2
	}
	var opts []skipqueue.Option
	if *adminAddr != "" {
		opts = append(opts, skipqueue.WithMetrics())
	}
	if structFR != nil {
		opts = append(opts, skipqueue.WithFlight(structFR))
	}
	inst := row.New(backends.Params{Shards: *shards, ElimSlots: *elimSlots, SprayK: *sprayK, Opts: opts})
	var backend multiset.Queue[[]byte] = inst

	// With -wal-dir the selected backend is wrapped in the durable
	// decorator: state recovered from disk is rebuilt into it before the
	// listener opens, and the server gates ACKs on the wrapper's Commit.
	var durable *wal.Queue
	if *walDir != "" {
		mode, err := wal.ParseMode(*walMode)
		if err != nil {
			fmt.Fprintf(stderr, "pqd: %v\n", err)
			return 2
		}
		q, rec, err := wal.OpenQueue(wal.Config{
			Dir:              *walDir,
			Mode:             mode,
			SyncInterval:     *walSyncIvl,
			SegmentBytes:     *walSegBytes,
			SnapshotSegments: *walSnapSegs,
			Flight:           serverFR,
		}, backend)
		if err != nil {
			fmt.Fprintf(stderr, "pqd: wal: %v\n", err)
			return 1
		}
		durable = q
		backend = q
		fmt.Fprintf(stdout, "pqd: wal: recovered dir=%s mode=%s records=%d items=%d snapshot_items=%d torn=%v\n",
			*walDir, *walMode, rec.Records, len(rec.Items), rec.SnapshotItems, rec.TornTail)
	}

	// With -lease the (possibly WAL-wrapped) backend is decorated once
	// more: the table owns delivery counts, delayed visibility, and the
	// dead-letter queue, and the server, finding it as its backend,
	// exposes the protocol opcodes. Over a wal.Queue the table's acks and
	// requeues are durable and its Commit is the wal.Queue's.
	var leaseTbl *lease.Table
	if *leaseOn {
		leaseTbl = lease.New(lease.Config{
			TTL:           *leaseTTL,
			Tick:          *leaseTick,
			MaxDeliveries: *maxDeliver,
			Flight:        serverFR,
		}, backend)
		backend = leaseTbl
		fmt.Fprintf(stdout, "pqd: lease: ttl=%v tick=%v max-deliveries=%d durable=%v\n",
			*leaseTTL, *leaseTick, *maxDeliver, leaseTbl.Durable())
	}

	srv := server.New(server.Config{
		Backend:     backend,
		MaxConns:    *maxConns,
		MaxInflight: *maxInflight,
		DrainWindow: *drainWindow,
		Flight:      serverFR,
		SLO:         *slo,
	})

	// draining feeds /healthz; it flips the instant a drain signal arrives,
	// before the data plane starts refusing, so load balancers stop routing
	// as early as possible.
	var draining atomic.Bool

	var adm *admin.Server
	var admErr chan error
	if *adminAddr != "" {
		snapFns := []func() obs.Snapshot{srv.Snapshot, srv.BatchSnapshot, inst.Snapshot}
		if durable != nil {
			snapFns = append(snapFns, durable.Log().Snapshot)
		}
		if leaseTbl != nil {
			snapFns = append(snapFns, leaseTbl.Snapshot)
		}
		snapshots := func() []obs.Snapshot {
			out := make([]obs.Snapshot, len(snapFns))
			for i, fn := range snapFns {
				out[i] = fn()
			}
			return out
		}
		adm = admin.New(admin.Config{
			Snapshots: snapshots,
			Draining:  draining.Load,
			Flight:    []*flight.Recorder{serverFR, structFR},
		})
		mln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fmt.Fprintf(stderr, "pqd: admin listener: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "pqd: admin addr=%s endpoints=/metrics,/healthz,/buildinfo,/debug/flight,/debug/pprof,/debug/vars\n", mln.Addr())
		admErr = make(chan error, 1)
		go func() { admErr <- adm.Serve(mln) }()
	}

	// stopAdmin retires the admin listener; called only after the data
	// plane is fully done, so the last drain state stays scrapeable until
	// the very end.
	stopAdmin := func() {
		if adm == nil {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		adm.Shutdown(ctx)
		cancel()
		<-admErr
	}

	// Register the drain trigger before announcing the address, so a
	// SIGTERM arriving the moment the address is known is never fatal.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "pqd: listen: %v\n", err)
		stopAdmin()
		return 1
	}
	fmt.Fprintf(stdout, "pqd: listening addr=%s backend=%s max-conns=%d max-inflight=%d\n",
		ln.Addr(), *backendName, *maxConns, *maxInflight)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case sig := <-sigc:
		draining.Store(true)
		fmt.Fprintf(stdout, "pqd: %v: draining (window=%v budget=%v)\n", sig, *drainWindow, *drainWait)
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		err := srv.Shutdown(ctx)
		cancel()
		<-serveErr
		// Shutdown has nacked outstanding leases back; the sweeper can
		// stop now that no lease can expire.
		if leaseTbl != nil {
			leaseTbl.Close()
			fmt.Fprintf(stdout, "pqd: lease: closed outstanding=%d dead=%d\n",
				leaseTbl.Outstanding(), leaseTbl.DeadLen())
		}
		// The data plane is quiet; the WAL's last duty is a final sync and
		// snapshot so the next boot replays a snapshot, not a long log tail.
		if durable != nil {
			if werr := durable.Close(); werr != nil {
				fmt.Fprintf(stderr, "pqd: wal close: %v\n", werr)
				if err == nil {
					err = werr
				}
			} else {
				fmt.Fprintf(stdout, "pqd: wal: closed items=%d\n", durable.Len())
			}
		}
		// Only now retire the admin surface, so the final drain state —
		// including the closing snapshot's probes — stays scrapeable.
		stopAdmin()
		snap := srv.Snapshot()
		fmt.Fprintf(stdout, "pqd: drained: frames=%d shutdown_replies=%d drain=%v backend_len=%d\n",
			snap.Counter("frames"), snap.Counter("drain.shutdown_replies"),
			time.Duration(snap.Counter("drain.ns")), backend.Len())
		if serverFR != nil {
			fmt.Fprintf(stdout, "pqd: flight: anomalies=%d\n", serverFR.Anomalies())
		}
		if err != nil {
			fmt.Fprintf(stderr, "pqd: drain incomplete: %v\n", err)
			return 1
		}
		return 0
	case err := <-serveErr:
		draining.Store(true)
		if leaseTbl != nil {
			leaseTbl.Close()
		}
		if durable != nil {
			durable.Close()
		}
		stopAdmin()
		if err != nil && !errors.Is(err, server.ErrServerClosed) {
			fmt.Fprintf(stderr, "pqd: serve: %v\n", err)
			return 1
		}
		return 0
	}
}
