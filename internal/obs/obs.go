// Package obs is the unified observability layer for every queue family in
// the repository. It provides the instrumentation primitives the paper's
// evaluation (Section 5) is built on — operation latency distributions and
// contention counters — at a cost low enough to leave compiled into the hot
// paths:
//
//   - Counter is a cache-line-padded, sharded monotone counter. Writers are
//     spread across shards by a cheap goroutine-affine hint, so a hot counter
//     (scan steps, lock retries) never becomes the contention hot-spot it is
//     trying to measure. Reads aggregate the shards.
//   - Hist is a fixed-memory log-bucket histogram (internal/hist) for
//     critical-section latencies and batch-size distributions.
//   - Set groups the probes of one structure and snapshots them all with the
//     same relaxed discipline as core.Stats: each probe is read atomically,
//     but the snapshot as a whole is not a consistent cut of a running queue.
//
// Every probe type is nil-safe: methods on a nil *Counter, *Hist or *Set are
// no-ops. A structure built without metrics holds nil probes and pays only a
// predictable nil check per site — no build tags, no indirection through
// interfaces. Callers that must spend extra work only when metrics are on
// (drawing time.Time stamps) gate on Set.Enabled.
//
// A structure that already keeps counts of its own needs none of this: the
// skiplist family (internal/core) counts every event once in padded
// shards of its own and fills a Snapshot with CounterValues when
// it is read, and its front-ends (sharded, spray, elim) derive what another
// layer already counts at that point instead of counting it again.
package obs

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"skipqueue/internal/hist"
)

// numShards bounds counter write-spreading. 32 shards of one cache line each
// keep a counter at 2KB — cheap enough to hold dozens per instrumented queue
// while covering the core counts of current machines.
const numShards = 32

// shard is one cache line worth of counter: the value plus padding so
// neighbouring shards never false-share.
type shard struct {
	n atomic.Uint64
	_ [7]uint64
}

// token carries a goroutine-affine shard hint. Tokens live in a sync.Pool:
// the pool's per-P fast path hands a goroutine back a token that was last
// used on its current P, which is exactly the locality a sharded counter
// wants (writers on different Ps land on different shards). Fresh tokens are
// numbered round-robin so the shards fill evenly.
type token struct {
	idx uint32
}

var tokenSeq atomic.Uint32

var tokenPool = sync.Pool{New: func() any {
	return &token{idx: tokenSeq.Add(1)}
}}

// ShardHint returns the calling goroutine's shard hint, the value Counter
// spreads its writers by. Structures that shard counters of their own
// (core's Stats) index with it, masked to their shard count.
func ShardHint() uint32 {
	t := tokenPool.Get().(*token)
	idx := t.idx
	tokenPool.Put(t)
	return idx
}

// Counter is a sharded monotone counter. The zero value is NOT ready to use;
// obtain counters from a Set. A nil *Counter ignores Add/Inc and reads 0.
type Counter struct {
	name   string
	shards [numShards]shard
}

// Add increments the counter by n. Safe for any number of concurrent
// writers; no-op on a nil receiver or for n == 0.
func (c *Counter) Add(n uint64) {
	if c == nil || n == 0 {
		return
	}
	c.shards[ShardHint()&(numShards-1)].n.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value aggregates the shards. Concurrent Adds may or may not be included;
// the value is monotone across calls on a quiescent counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].n.Load()
	}
	return sum
}

// Name returns the counter's registered name ("" on nil).
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Unit tags what a histogram's samples measure, so exposition can format
// durations as durations and plain counts as counts.
type Unit string

const (
	// UnitDuration samples are nanoseconds (latencies, hold times).
	UnitDuration Unit = "ns"
	// UnitCount samples are dimensionless magnitudes (batch sizes, depths).
	UnitCount Unit = "count"
)

// Hist is a nil-safe latency/magnitude histogram. Obtain from a Set.
type Hist struct {
	name string
	unit Unit
	h    hist.H
}

// Observe records a duration sample; no-op on a nil receiver.
func (h *Hist) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.h.Observe(d)
}

// ObserveN records a magnitude sample (batch size, combining depth).
func (h *Hist) ObserveN(n uint64) {
	if h == nil {
		return
	}
	h.h.Observe(time.Duration(n))
}

// Since records the elapsed time from t0; no-op (and no clock read) on nil.
func (h *Hist) Since(t0 time.Time) {
	if h == nil {
		return
	}
	h.h.Observe(time.Since(t0))
}

// Name returns the histogram's registered name ("" on nil).
func (h *Hist) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Set is the probe registry of one instrumented structure. A nil *Set hands
// out nil probes and snapshots to a disabled Snapshot, so construction code
// can register probes unconditionally:
//
//	var set *obs.Set
//	if metrics {
//		set = obs.NewSet("skipqueue.globallock")
//	}
//	lockWait := set.Durations("lock.wait")   // nil when metrics are off
type Set struct {
	name     string
	mu       sync.Mutex
	counters []*Counter
	hists    []*Hist
}

// NewSet returns an empty probe registry named name.
func NewSet(name string) *Set { return &Set{name: name} }

// Enabled reports whether the set collects anything (false on nil). Hot
// paths use it to gate work that only matters when metrics are on, like
// reading the wall clock.
func (s *Set) Enabled() bool { return s != nil }

// Name returns the set name ("" on nil).
func (s *Set) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Counter registers (or returns the existing) counter with the given name.
// Returns nil on a nil set.
func (s *Set) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.counters {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	s.counters = append(s.counters, c)
	return c
}

// Durations registers (or returns the existing) duration histogram.
func (s *Set) Durations(name string) *Hist { return s.histogram(name, UnitDuration) }

// Values registers (or returns the existing) magnitude histogram.
func (s *Set) Values(name string) *Hist { return s.histogram(name, UnitCount) }

func (s *Set) histogram(name string, unit Unit) *Hist {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, h := range s.hists {
		if h.name == name {
			return h
		}
	}
	h := &Hist{name: name, unit: unit}
	s.hists = append(s.hists, h)
	return h
}

// CounterValue is one counter's aggregated reading.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// OctaveCount is one power-of-two band of a histogram: Count samples in
// [Lo, 2*Lo).
type OctaveCount struct {
	Lo    uint64 `json:"lo"`
	Count uint64 `json:"count"`
}

// HistValue is one histogram's summary. Mean and the quantiles are expressed
// in the histogram's Unit (nanoseconds or a plain count).
type HistValue struct {
	Name    string        `json:"name"`
	Unit    Unit          `json:"unit"`
	Count   uint64        `json:"count"`
	Mean    int64         `json:"mean"`
	P50     int64         `json:"p50"`
	P90     int64         `json:"p90"`
	P99     int64         `json:"p99"`
	Max     int64         `json:"max"`
	Octaves []OctaveCount `json:"octaves,omitempty"`
}

// Snapshot is a point-in-time reading of a Set, with the same relaxed
// semantics as core.Stats: every individual probe is loaded atomically, but
// probes are read one after another, so under concurrent load the snapshot
// is not a consistent cut (an operation completing during the read may be
// visible in one counter and not yet in another). Monotonicity per probe is
// the only cross-snapshot guarantee.
type Snapshot struct {
	Name     string         `json:"name"`
	Enabled  bool           `json:"enabled"`
	Counters []CounterValue `json:"counters,omitempty"`
	Hists    []HistValue    `json:"hists,omitempty"`
}

// Snapshot reads every probe once, in registration order. On a nil set it
// returns a Snapshot with Enabled == false.
func (s *Set) Snapshot() Snapshot {
	if s == nil {
		return Snapshot{}
	}
	s.mu.Lock()
	counters := append([]*Counter(nil), s.counters...)
	hists := append([]*Hist(nil), s.hists...)
	snap := Snapshot{Name: s.name, Enabled: true}
	s.mu.Unlock()
	for _, c := range counters {
		snap.Counters = append(snap.Counters, CounterValue{Name: c.name, Value: c.Value()})
	}
	for _, h := range hists {
		hv := HistValue{
			Name:  h.name,
			Unit:  h.unit,
			Count: h.h.Count(),
			Mean:  int64(h.h.Mean()),
			P50:   int64(h.h.Quantile(0.50)),
			P90:   int64(h.h.Quantile(0.90)),
			P99:   int64(h.h.Quantile(0.99)),
			Max:   int64(h.h.Max()),
		}
		for _, o := range h.h.Octaves() {
			hv.Octaves = append(hv.Octaves, OctaveCount{Lo: o.Lo, Count: o.Count})
		}
		snap.Hists = append(snap.Hists, hv)
	}
	return snap
}

// Counter returns the reading of the named counter (0 when absent), for
// tests and assertions.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Hist returns the named histogram summary and whether it exists.
func (s Snapshot) Hist(name string) (HistValue, bool) {
	for _, h := range s.Hists {
		if h.Name == name {
			return h, true
		}
	}
	return HistValue{}, false
}

// barWidth is the widest distribution bar Table renders.
const barWidth = 32

// Table renders the snapshot as an aligned terminal table: counters first,
// then one summary line per histogram with an octave distribution bar chart
// underneath, in the style of internal/asciiplot.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", s.Name)
	if !s.Enabled {
		b.WriteString("  (metrics disabled)\n")
		return b.String()
	}
	if len(s.Counters) > 0 {
		width := 0
		for _, c := range s.Counters {
			if len(c.Name) > width {
				width = len(c.Name)
			}
		}
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-*s %12d\n", width, c.Name, c.Value)
		}
	}
	for _, h := range s.Hists {
		fmt.Fprintf(&b, "  %s: n=%d mean=%s p50=%s p90=%s p99=%s max=%s\n",
			h.Name, h.Count, h.fmtv(h.Mean), h.fmtv(h.P50), h.fmtv(h.P90), h.fmtv(h.P99), h.fmtv(h.Max))
		var peak uint64
		for _, o := range h.Octaves {
			if o.Count > peak {
				peak = o.Count
			}
		}
		for _, o := range h.Octaves {
			n := int(o.Count * barWidth / peak)
			if n == 0 {
				n = 1
			}
			fmt.Fprintf(&b, "    %9s %-*s %d\n", h.fmtv(int64(o.Lo)), barWidth, strings.Repeat("#", n), o.Count)
		}
	}
	return b.String()
}

// fmtv formats a sample in the histogram's unit.
func (h HistValue) fmtv(v int64) string {
	if h.Unit == UnitDuration {
		return time.Duration(v).String()
	}
	return fmt.Sprintf("%d", v)
}

// String is the table form.
func (s Snapshot) String() string { return s.Table() }

// Merge folds other's counters and histogram summaries into a combined
// snapshot keyed by probe name (counters add; histogram summaries keep the
// union, preferring s's entry on collision). It serves exposition that
// aggregates several structures under one name.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := s
	out.Enabled = s.Enabled || other.Enabled
	for _, c := range other.Counters {
		found := false
		for i := range out.Counters {
			if out.Counters[i].Name == c.Name {
				out.Counters[i].Value += c.Value
				found = true
				break
			}
		}
		if !found {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, h := range other.Hists {
		if _, ok := out.Hist(h.Name); !ok {
			out.Hists = append(out.Hists, h)
		}
	}
	sort.SliceStable(out.Counters, func(i, j int) bool { return out.Counters[i].Name < out.Counters[j].Name })
	return out
}

// Do runs fn with the pprof label op=name attached, so a CPU profile taken
// during a benchmark attributes samples per operation type (pprof -tagfocus
// op=insert). The context allocation makes this a per-call cost of ~100ns;
// use it around operations in measurement harnesses, not inside library hot
// paths.
func Do(op string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("op", op), func(context.Context) { fn() })
}
