package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"time"

	"skipqueue/internal/client"
)

// serverSample is a reading of pqd's CPU time from /proc, of the bench
// process itself, and, in a traced run, of pqd's admin surface.
type serverSample struct {
	cpu  cpuTimes
	self *selfSample
	sc   *scrape
}

func sampleServer(d *daemon, admin bool) (*serverSample, error) {
	cpu, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	s := &serverSample{cpu: cpu, self: takeSelf()}
	if admin {
		if s.sc, err = scrapeAdmin(d.admin); err != nil {
			return nil, fmt.Errorf("scrape pqd admin: %w", err)
		}
	}
	return s, nil
}

// setServerProcess reports the allocations the client library makes in
// the bench process per operation and, in a traced run, what pqd's runtime
// and CPU time say about the window.
func (m *measured) setServerProcess(a, b *serverSample, ops int64, traced bool) {
	m.set("allocs_per_op", float64(b.self.ms.Mallocs-a.self.ms.Mallocs)/float64(ops), 0)
	if traced {
		cpu := b.cpu.sub(a.cpu)
		gen := b.self.cpu.sub(a.self.cpu)
		m.set("proc.allocs_per_op", (b.sc.mallocs-a.sc.mallocs)/float64(ops), 0)
		m.set("proc.gc_pause_ms", (b.sc.gcPauseNs-a.sc.gcPauseNs)/1e6, int(b.sc.numGC-a.sc.numGC))
		m.set("proc.sys_share", float64(cpu.sys)/float64(cpu.total()), 0)
		m.set("proc.cpu_share", float64(cpu.total())/float64(b.self.at.Sub(a.self.at)), 0)
		m.set("gen.cpu_share", float64(gen.total())/float64(b.self.at.Sub(a.self.at)), 0)
	}
}

// prodArgs is pqd's full production configuration.
func prodArgs(w workloadSpec, walDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-backend", "skipqueue",
		"-wal-dir", walDir, "-wal-mode", "sync",
		"-lease", "-admin", "127.0.0.1:0", "-flight", strconv.Itoa(w.Flight),
	}
}

func dialBatched(w workloadSpec, addr string) (*client.Client, error) {
	return client.Dial(client.Config{
		Addr: addr, Conns: w.Conns, Window: w.Window,
		BatchMax: w.BatchMax, BatchLinger: time.Duration(w.BatchLingerUs) * time.Microsecond,
	})
}

// seedProd starts pqd on an empty WAL directory, inserts the seed
// elements through the batched client, waits for the last durable ACK and
// kills the daemon with SIGKILL. It returns the seeding time.
func seedProd(o runOpts, walDir string, gen int) (float64, error) {
	w := o.w
	d, err := startDaemon(o.env.pqd, prodArgs(w, walDir)...)
	if err != nil {
		return 0, err
	}
	defer d.kill()
	cl, err := dialBatched(w, d.addr)
	if err != nil {
		return 0, fmt.Errorf("dial pqd: %w", err)
	}
	defer cl.Close()
	start := time.Now()
	// The client keeps at most window calls in flight per connection, so
	// this many slots never stall the issuing side first.
	waits := make(chan *client.Pending, w.Window*w.Conns)
	done := make(chan error, 1)
	go func() {
		var first error
		for p := range waits {
			if _, err := p.Wait(); err != nil && first == nil {
				first = err
			}
		}
		done <- first
	}()
	rng := rand.New(rand.NewPCG(o.seed, 0))
	var issueErr error
	for i := 0; i < w.SeedElements && issueErr == nil; i++ {
		v := make([]byte, w.ValueBytes)
		putID(v, makeID(gen, int64(i)))
		var p *client.Pending
		if p, issueErr = cl.InsertAsync(rng.Int64N(w.KeyRange), v); issueErr == nil {
			waits <- p
		}
	}
	close(waits)
	if err := <-done; err != nil {
		return 0, fmt.Errorf("seed: %w", err)
	}
	if issueErr != nil {
		return 0, fmt.Errorf("seed: %w", issueErr)
	}
	return time.Since(start).Seconds(), nil
}

// recoverProd restarts pqd on the seeded directory and returns once a
// dialled client has seen the full Len: log-replay recovery, end to end.
func recoverProd(o runOpts, walDir string) (*pqdUnderTest, error) {
	d, err := startDaemon(o.env.pqd, prodArgs(o.w, walDir)...)
	if err != nil {
		return nil, err
	}
	cl, err := dialBatched(o.w, d.addr)
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("dial pqd: %w", err)
	}
	p := &pqdUnderTest{d, cl}
	n, err := cl.Len()
	if err != nil {
		p.closeAndKill()
		return nil, fmt.Errorf("Len after recovery: %w", err)
	}
	if n != o.w.SeedElements {
		p.closeAndKill()
		return nil, fmt.Errorf("recovered Len %d after kill -9, want %d", n, o.w.SeedElements)
	}
	return p, nil
}

func runNetProdOpen(o runOpts) (*measured, error) {
	w := o.w
	m := newMeasured()
	seedGen, loopGen := 1, 0
	walDir, err := os.MkdirTemp(o.env.work, "wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)

	seedS, err := seedProd(o, walDir, seedGen)
	if err != nil {
		return nil, err
	}
	m.set("wal.seed_s", seedS, 0)

	// Set-up is the restart after the kill: repeated, each time with
	// another kill -9 in between, and the last recovery is measured on.
	var p *pqdUnderTest
	var setups []float64
	for i := 0; i < o.setups; i++ {
		if p != nil {
			p.closeAndKill()
		}
		t := time.Now()
		if p, err = recoverProd(o, walDir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer p.closeAndKill()
	m.set("setup_s", median(setups), len(setups))
	if p.d.recovered > 0 {
		m.set("wal.recover_s_per_mrec", median(setups)/float64(p.d.recovered)*1e6, len(setups))
	}

	loop := &openLoop{
		sink: clientSink{p.cl}, rate: w.Rate,
		warmupOps: int(o.spec.WarmupS * float64(w.Rate)), ops: int(o.seconds * float64(w.Rate)),
		reapers: w.Conns, window: w.Window, late: time.Duration(w.LateMs) * time.Millisecond,
		seed: o.seed, keyRange: w.KeyRange, valueBytes: w.ValueBytes,
		gen: loopGen, ids: newIDSet(2, int64(max(w.SeedElements, int((o.spec.WarmupS+o.seconds)*float64(w.Rate))))),
		traced: o.traced,
	}
	// The coordinator reads pqd at both ends of the window and its CPU
	// time at every slice boundary, on the dispatcher's clock.
	t0 := time.Now()
	var a, b *serverSample
	var cpu []time.Duration
	var watchErr error
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		time.Sleep(time.Until(t0.Add(o.warmup())))
		if a, watchErr = sampleServer(p.d, true); watchErr != nil {
			return
		}
		if cpu, watchErr = watchCPU(t0, o.warmup(), o.step(), o.spec.Slices, func() (time.Duration, error) { return procRunTime(p.d.pid()) }); watchErr != nil {
			return
		}
		b, watchErr = sampleServer(p.d, true)
	}()
	res := loop.run(t0)
	<-watched
	if watchErr != nil {
		return nil, watchErr
	}

	m.attempted = int64(loop.ops)
	m.failed = res.failed
	if res.firstErr != nil {
		m.violate("first failed operation: %v", res.firstErr)
	}
	// Completions over the time from the window's opening to the last of
	// them: the schedule pins each rate unless the server falls behind.
	window := (res.lastDone - o.warmup()).Seconds()
	m.set("ops_per_s", float64(res.completed)/window, 0)
	m.set("insert_ops_per_s", float64(res.insDone)/window, 0)
	m.set("deletemin_ops_per_s", float64(res.delDone)/window, 0)
	perSlice, done := res.slices(loop, o.spec.Slices)
	m.set("cpu_us_per_op", cpuPerOp(cpu, done), len(done))
	m.setLatency(perSlice, 0, w)
	slices.Sort(res.lag)
	lag, _ := quantile(res.lag, 0.99)
	m.set("gen.lag_p99_us", float64(lag)/1e3, len(res.lag))
	m.set("gen.late_share", float64(res.late+res.failed)/float64(loop.ops), loop.ops)
	m.setServerProcess(a, b, max(res.completed, 1), true)
	if o.traced {
		m.keepSpans(res.recs)
	}

	// What the admin surface says about the window, layer by layer.
	ops := float64(max(res.completed, 1))
	d := func(name string) float64 { return b.sc.delta(a.sc, "pqd_skipqueue_"+name) }
	m.set("server.ops_per_apply_run", ratio(d("batch_coalesce_ops_sum"), d("batch_coalesce_flushes_total")), 0)
	m.set("client.batch_ops_per_frame", ratio(d("batch_batch_size_sum"), d("batch_batch_size_count")), 0)
	m.set("wal.fsyncs_per_kop", d("wal_sync_fsync_seconds_count")/ops*1e3, 0)
	m.set("wal.records_per_fsync", ratio(d("wal_sync_batch_sum"), d("wal_sync_batch_count")), 0)
	m.set("wal.fsync_mean_us", ratio(d("wal_sync_fsync_seconds_sum"), d("wal_sync_fsync_seconds_count"))*1e6, int(d("wal_sync_fsync_seconds_count")))
	m.set("wal.stalls", d("wal_sync_stalls_total"), 0)

	// Quiescent checks: conservation against the recovered depth, ids,
	// then a clean drain on SIGTERM.
	n, err := p.cl.Len()
	if err != nil {
		m.violate("final Len: %v", err)
	} else if want := int64(w.SeedElements) + res.inserted - res.deleted; int64(n) != want {
		m.violate("final Len %d, want recovered+inserts-removals = %d", n, want)
	}
	inserted := []int64{0, int64(w.SeedElements)}
	inserted[loopGen] = res.insIssued
	m.violations = append(m.violations, loop.ids.check(inserted, false)...)
	rss, err := peakRSSMB(p.d.pid())
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, 0)
	p.cl.Close()
	p.cl = nil
	if err := p.d.term(); err != nil {
		m.violate("%v", err)
	}
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
