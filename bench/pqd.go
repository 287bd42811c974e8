package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// environ is where a run finds the program under test and may write.
type environ struct {
	pqd  string // path of the built cmd/pqd binary
	work string // scratch directory of this run, removed on exit
}

// daemon is one running pqd subprocess, in its own process group.
type daemon struct {
	cmd       *exec.Cmd
	addr      string // data-plane address, from the "listening" line
	admin     string // admin address, "" without -admin
	recovered int64  // "records=" of the WAL recovery line
	exited    chan struct{}
	waitErr   error
}

// live holds every daemon not yet reaped, so that a signal to the bench
// kills them all; it is the one registration table of this program.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

// killAllOnSignal makes SIGINT and SIGTERM to the bench kill every pqd
// process group and remove the work directory before exiting.
func killAllOnSignal(work string) {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-c
		live.Lock()
		for d := range live.set {
			_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL) // best effort on the way out
		}
		live.Unlock()
		os.RemoveAll(work)
		os.Exit(130)
	}()
}

// startDaemon runs pqd with args and waits until it prints its listening
// address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pqd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]struct{})
	}
	live.set[d] = struct{}{}
	live.Unlock()

	ready := make(chan struct{})
	go func() {
		// Reads pqd's stdout to EOF so the daemon never blocks on a full
		// pipe, then reaps it. Fields are written before ready is closed.
		sc := bufio.NewScanner(out)
		listening := false
		for sc.Scan() {
			if listening {
				continue
			}
			line := sc.Text()
			if v, ok := fieldOf(line, "pqd: wal: recovered", "records="); ok {
				d.recovered, _ = strconv.ParseInt(v, 10, 64)
			}
			if v, ok := fieldOf(line, "pqd: admin", "addr="); ok {
				d.admin = v
			}
			if v, ok := fieldOf(line, "pqd: listening", "addr="); ok {
				d.addr = v
				listening = true
				close(ready)
			}
		}
		d.waitErr = cmd.Wait()
		live.Lock()
		delete(live.set, d)
		live.Unlock()
		close(d.exited)
	}()

	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("pqd exited before listening: %v", d.waitErr)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("pqd did not listen within 60s")
	}
}

// fieldOf returns the value of key (as in "addr=1.2.3.4:5") on a line
// that starts with prefix.
func fieldOf(line, prefix, key string) (string, bool) {
	if !strings.HasPrefix(line, prefix) {
		return "", false
	}
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key); ok {
			return v, true
		}
	}
	return "", false
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill sends SIGKILL to the daemon's process group and waits for it. A
// daemon that has been reaped already is left alone: its pid may be
// someone else's by now.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // exiting right now is fine
	<-d.exited
}

// term sends SIGTERM and requires a clean drain: exit code 0.
func (d *daemon) term() error {
	if err := syscall.Kill(d.pid(), syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("SIGTERM pqd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("pqd did not exit within 30s of SIGTERM")
	}
	if d.waitErr != nil {
		return fmt.Errorf("pqd after SIGTERM: %w", d.waitErr)
	}
	return nil
}

// scrape is one reading of pqd's admin surface: every sample line of
// /metrics by name, and the runtime memstats from /debug/vars.
type scrape struct {
	prom      map[string]float64
	mallocs   float64
	gcPauseNs float64
	numGC     float64
}

// parseProm reads Prometheus text exposition. Lines with labels (histogram
// buckets) are skipped: the bench uses only _sum, _count, _total and _max.
func parseProm(r io.Reader) (map[string]float64, error) {
	m := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.IndexByte(line, '{') >= 0 {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		m[name] = v
	}
	return m, sc.Err()
}

func scrapeAdmin(admin string) (*scrape, error) {
	get := func(path string) (io.ReadCloser, error) {
		resp, err := http.Get("http://" + admin + path)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
		}
		return resp.Body, nil
	}
	body, err := get("/metrics")
	if err != nil {
		return nil, err
	}
	prom, err := parseProm(body)
	body.Close()
	if err != nil {
		return nil, err
	}
	body, err = get("/debug/vars")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	var vars struct {
		Memstats struct {
			Mallocs      float64
			PauseTotalNs float64
			NumGC        float64
		} `json:"memstats"`
	}
	if err := json.NewDecoder(body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	ms := vars.Memstats
	return &scrape{prom: prom, mallocs: ms.Mallocs, gcPauseNs: ms.PauseTotalNs, numGC: ms.NumGC}, nil
}

// delta is after[name] − before[name].
func (after *scrape) delta(before *scrape, name string) float64 {
	return after.prom[name] - before.prom[name]
}
