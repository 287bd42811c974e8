package main

import (
	"fmt"
	"runtime"
	"time"
)

// runOpts is everything one run of one workload is given.
type runOpts struct {
	spec    *benchSpec
	w       workloadSpec
	seed    uint64
	seconds float64
	setups  int  // how often set-up is repeated; setup_s is the median
	traced  bool // time every call, keep spans, read the process under test's runtime
	env     environ
	// corruptCheck makes a workload hand one delivered value to the id
	// check twice. Only tests set it, to show that a broken invariant
	// reaches the exit code.
	corruptCheck bool
}

func (o runOpts) warmup() time.Duration {
	return time.Duration(o.spec.WarmupS * float64(time.Second))
}

func (o runOpts) length() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// step is the length of one slice of the window.
func (o runOpts) step() time.Duration { return o.length() / time.Duration(o.spec.Slices) }

// measured is what a workload found: metric values by name, the sample
// count behind each timing, and the outcome of its correctness checks.
type measured struct {
	vals       map[string]float64
	n          map[string]int
	attempted  int64
	failed     int64
	violations []string
	notes      []string
	recs       []*spanRec // one per goroutine of a traced run
}

func newMeasured() *measured {
	return &measured{vals: map[string]float64{}, n: map[string]int{}}
}

func (m *measured) set(name string, v float64, n int) {
	m.vals[name] = v
	if n > 0 {
		m.n[name] = n
	}
}

func (m *measured) violate(format string, args ...any) {
	m.violations = append(m.violations, fmt.Sprintf(format, args...))
}

// setLatency reports the latency metrics from the window's samples, given
// slice by slice, each slice sorted. lat_mid_us is the mean of a slice's
// samples between its first and last decile: unlike a percentile it moves
// smoothly when the samples fall into two groups whose shares shift. Each
// is the median over slices of the slice's own value, so that a burst of
// interference which spoils a few slices does not move it; the far tail is
// taken over all samples together. lat_us, the one latency that is gated,
// is whichever of these the workload names as lat_stat in spec.json. A percentile the sample count
// cannot support (fewer than ten samples beyond it) falls back to the
// highest one it can, and the report says so.
func (m *measured) setLatency(slices [][]int64, dropped int, w workloadSpec) {
	total := 0
	for _, s := range slices {
		total += len(s)
	}
	var mids []float64
	for _, s := range slices {
		if mid := s[len(s)/10 : len(s)-len(s)/10]; len(mid) > 0 {
			mids = append(mids, mean(mid)/1e3)
		}
	}
	m.set("lat_mid_us", median(mids), total)
	for _, p := range []struct {
		name string
		q    float64
	}{{"lat_p50_us", 0.5}, {"lat_p90_us", 0.9}, {"lat_p99_us", 0.99}} {
		var per []float64
		lowest := p.q
		for _, s := range slices {
			if len(s) == 0 {
				continue
			}
			v, used := quantile(s, p.q)
			per = append(per, float64(v)/1e3)
			lowest = min(lowest, used)
		}
		m.set(p.name, median(per), total)
		if lowest != p.q {
			m.notes = append(m.notes, fmt.Sprintf("%s: a slice's samples support only its %.4f quantile", p.name, lowest))
		}
	}
	// The gated latency is the statistic that is steady on this workload.
	m.set("lat_us", m.vals[w.LatStat], total)
	all := pool(slices...)
	if len(all) > 0 {
		v, used := quantile(all, 0.999)
		m.set("tail.lat_p999_us", float64(v)/1e3, len(all))
		if used != 0.999 {
			m.notes = append(m.notes, fmt.Sprintf("tail.lat_p999_us: %d samples support only the %.4f quantile", len(all), used))
		}
		m.set("tail.lat_max_ms", float64(all[len(all)-1])/1e6, len(all))
	}
	if dropped > 0 {
		m.notes = append(m.notes, fmt.Sprintf("latency store full: %d samples not kept", dropped))
	}
}

// selfSample is a reading of this process's CPU time and allocator.
type selfSample struct {
	cpu cpuTimes
	ms  runtime.MemStats
	at  time.Time
}

func takeSelf() *selfSample {
	s := &selfSample{cpu: selfCPU(), at: time.Now()}
	runtime.ReadMemStats(&s.ms)
	return s
}

// setSelfProcess reports the metrics of a workload whose process under
// test is the bench process itself (the in-process workloads).
func (m *measured) setSelfProcess(a, b *selfSample, ops int64, rssMB float64, traced bool) {
	cpu := b.cpu.sub(a.cpu)
	m.set("allocs_per_op", float64(b.ms.Mallocs-a.ms.Mallocs)/float64(ops), 0)
	m.set("peak_rss_mb", rssMB, 0)
	if traced {
		m.set("proc.allocs_per_op", float64(b.ms.Mallocs-a.ms.Mallocs)/float64(ops), 0)
		m.set("proc.gc_pause_ms", float64(b.ms.PauseTotalNs-a.ms.PauseTotalNs)/1e6, int(b.ms.NumGC-a.ms.NumGC))
		m.set("proc.sys_share", float64(cpu.sys)/float64(cpu.total()), 0)
		m.set("proc.cpu_share", float64(cpu.total())/float64(b.at.Sub(a.at)), 0)
		m.set("gen.cpu_share", float64(cpu.total())/float64(b.at.Sub(a.at)), 0)
	}
}

// spans returns every kept span in one slice, parents re-indexed.
func (m *measured) spans() []span {
	var out []span
	for _, r := range m.recs {
		if r == nil {
			continue
		}
		off := int32(len(out))
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			out = append(out, s)
		}
	}
	return out
}

// keepSpans takes over a traced run's spans, one store per goroutine.
func (m *measured) keepSpans(recs []*spanRec) {
	m.recs = recs
	m.set("gen.self_share", genSelfShare(recs), 0)
}
