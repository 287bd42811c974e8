// Package quality checks *relaxed* priority-queue histories — the
// companion of internal/lincheck, which checks strict Definition 1
// histories. A relaxed queue (internal/sharded's choice-of-two ShardedPQ,
// or the paper's Section 5.4 relaxed SkipQueue) is allowed to return an
// element that is not the global minimum, so the strict checker's "did you
// return the minimum of I−D" question is the wrong one. The questions that
// remain meaningful, and that this package answers from a recorded
// history, are the ones the k-LSM benchmarking literature settled on:
//
//  1. Conservation (hard invariant): every delivered element was inserted
//     exactly once, nothing is delivered twice, and whatever was inserted
//     but never delivered is still in the queue afterwards. Analyze
//     returns an error when this multiset invariant breaks.
//
//  2. Rank error (quality metric): for each successful delete, how many
//     eligible elements had a strictly smaller key at its claim point. A
//     strict queue scores 0 everywhere; choice-of-two sampling over P
//     shards is expected to score O(P) on average with an O(P·log P)
//     tail, and Report.CheckBound asserts a generously-constanted bound
//     of exactly that shape on the mean and the p99.
//
// Histories are sequences of Event values stamped at each operation's
// serialization point (internal/sharded draws these from one global
// counter via its tracer hook). Analyze replays the history in stamp
// order. Because an insert's stamp is drawn after its element became
// visible, a racing delete can legitimately deliver an element whose
// insert event carries a later stamp; the replay treats such elements as
// in-flight rather than phantom, and pairs them up when the insert event
// arrives.
package quality

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Event is one recorded operation. It mirrors internal/sharded.Event
// structurally (this package depends on no queue implementation, so any
// relaxed queue can be checked by adapting its trace into these).
type Event struct {
	// Insert is true for an insert of (Key, ID); false for a delete that
	// returned (Key, ID) when OK, or EMPTY when !OK.
	Insert bool
	// Key is the element's priority.
	Key int64
	// ID is the element's unique identity — the multiset handle that lets
	// duplicate priorities be told apart.
	ID uint64
	// OK is false only for EMPTY deletes.
	OK bool
	// Stamp is the operation's serialization stamp; Analyze replays the
	// history in ascending Stamp order.
	Stamp int64
}

// Element identifies one leftover element found in the queue after the
// recorded run (compare internal/sharded.Entry).
type Element struct {
	Key int64
	ID  uint64
}

// Recorder is a concurrency-safe Event sink, suitable as the target of a
// queue tracer hook.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns a Recorder with capacity pre-allocated for about n
// events.
func NewRecorder(n int) *Recorder {
	return &Recorder{events: make([]Event, 0, n)}
}

// Record appends one event.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns the recorded history (a copy; safe to Analyze while the
// recorder keeps collecting).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Report summarizes a verified history.
type Report struct {
	Inserts int // insert events
	Deletes int // successful delete events
	Empties int // EMPTY delete events

	// Ranks holds each successful delete's rank error in replay order:
	// the number of live elements with a strictly smaller key at the
	// delete's stamp. 0 means the delete took a minimum.
	Ranks []int
	// MeanRank, P99Rank and MaxRank summarize Ranks (all zero when no
	// successful delete was recorded).
	MeanRank float64
	P99Rank  int
	MaxRank  int

	// FalseEmpties counts EMPTY deletes whose stamp fell while the replay
	// live-set was non-empty. Under concurrency a full-sweep queue can
	// produce these legitimately (every live element may be claimed or
	// inserted concurrently with the sweep), so this is advisory — but in
	// a sequential history it must be zero.
	FalseEmpties int

	// Lost counts elements that were inserted, never delivered, and absent
	// from the drained remainder. Analyze treats any loss as an error;
	// AnalyzeCrash tolerates up to its caller-supplied allowance (a durably
	// consumed pop whose ACK died with the process looks exactly like a
	// lost element from the outside).
	Lost int
}

// liveSet is an ordered multiset of live elements keyed (Key, ID),
// supporting rank queries. A sorted slice with binary search is O(n) per
// mutation in the worst case, which is fine at test scale.
type liveSet struct {
	els []Element // sorted by (Key, ID)
	pos map[uint64]struct{}
}

func elLess(a, b Element) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.ID < b.ID
}

func (l *liveSet) search(e Element) int {
	return sort.Search(len(l.els), func(i int) bool { return !elLess(l.els[i], e) })
}

func (l *liveSet) add(e Element) {
	i := l.search(e)
	l.els = append(l.els, Element{})
	copy(l.els[i+1:], l.els[i:])
	l.els[i] = e
	l.pos[e.ID] = struct{}{}
}

func (l *liveSet) remove(e Element) bool {
	if _, ok := l.pos[e.ID]; !ok {
		return false
	}
	i := l.search(e)
	if i >= len(l.els) || l.els[i] != e {
		return false
	}
	l.els = append(l.els[:i], l.els[i+1:]...)
	delete(l.pos, e.ID)
	return true
}

// rankBelow counts live elements with key strictly smaller than key.
func (l *liveSet) rankBelow(key int64) int {
	return sort.Search(len(l.els), func(i int) bool { return l.els[i].Key >= key })
}

// Analyze replays a recorded history in stamp order, verifying the
// multiset conservation invariant against the remaining elements drained
// from the quiescent queue, and computing the rank-error distribution. It
// returns a non-nil error exactly when conservation is violated (lost,
// duplicated or phantom elements) or the recording is inconsistent.
func Analyze(events []Event, remaining []Element) (*Report, error) {
	return analyze(events, remaining, 0)
}

// AnalyzeCrash is Analyze for histories recorded across process crashes
// (the WAL crash-injection harness). Duplicated elements, phantom
// deliveries and key mismatches remain hard errors — a crash never
// justifies them — but up to maxLost lost elements are tolerated and
// reported in Report.Lost instead of failing the check. The allowance
// exists for exactly one legitimate shape: a pop whose record went durable
// but whose ACK died with the process consumed the element without anyone
// learning its identity, so the caller must pass the count of such
// unacknowledged pops (and no more).
func AnalyzeCrash(events []Event, remaining []Element, maxLost int) (*Report, error) {
	return analyze(events, remaining, maxLost)
}

func analyze(events []Event, remaining []Element, maxLost int) (*Report, error) {
	ops := append([]Event(nil), events...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Stamp < ops[j].Stamp })

	rep := &Report{}
	live := &liveSet{pos: map[uint64]struct{}{}}
	inserted := map[uint64]int64{}  // ID -> key, every insert ever seen
	delivered := map[uint64]int64{} // ID -> key, every successful delete
	inflight := map[uint64]int64{}  // delivered before their insert event's stamp

	for _, op := range ops {
		if op.Insert {
			if k, dup := inserted[op.ID]; dup {
				return nil, fmt.Errorf("quality: id %d inserted twice (keys %d and %d)", op.ID, k, op.Key)
			}
			inserted[op.ID] = op.Key
			rep.Inserts++
			if k, raced := inflight[op.ID]; raced {
				// Already delivered by a racing delete; never goes live.
				if k != op.Key {
					return nil, fmt.Errorf("quality: id %d inserted with key %d but delivered with key %d", op.ID, op.Key, k)
				}
				delete(inflight, op.ID)
				continue
			}
			live.add(Element{Key: op.Key, ID: op.ID})
			continue
		}
		if !op.OK {
			rep.Empties++
			if len(live.els) > 0 {
				rep.FalseEmpties++
			}
			continue
		}
		if k, dup := delivered[op.ID]; dup {
			return nil, fmt.Errorf("quality: id %d delivered twice (keys %d and %d)", op.ID, k, op.Key)
		}
		delivered[op.ID] = op.Key
		rep.Deletes++
		rep.Ranks = append(rep.Ranks, live.rankBelow(op.Key))
		if live.remove(Element{Key: op.Key, ID: op.ID}) {
			continue
		}
		if k, seen := inserted[op.ID]; seen {
			// In the live map by ID but not removable as (Key, ID): the
			// delete's key disagrees with the insert's.
			return nil, fmt.Errorf("quality: id %d inserted with key %d but delivered with key %d", op.ID, k, op.Key)
		}
		// Delivered ahead of its insert event: concurrent insert whose
		// stamp landed later. Pair them up when the insert arrives.
		inflight[op.ID] = op.Key
	}

	if len(inflight) > 0 {
		for id, k := range inflight {
			return nil, fmt.Errorf("quality: id %d (key %d) delivered but never inserted (phantom)", id, k)
		}
	}

	// Leftovers: inserted − delivered must equal the drained remainder.
	want := map[uint64]int64{}
	for id, k := range inserted {
		if _, gone := delivered[id]; !gone {
			want[id] = k
		}
	}
	seen := map[uint64]bool{}
	for _, e := range remaining {
		if seen[e.ID] {
			return nil, fmt.Errorf("quality: id %d present twice in the drained remainder", e.ID)
		}
		seen[e.ID] = true
		k, ok := want[e.ID]
		if !ok {
			return nil, fmt.Errorf("quality: id %d (key %d) remains but was never inserted or was already delivered", e.ID, e.Key)
		}
		if k != e.Key {
			return nil, fmt.Errorf("quality: id %d inserted with key %d but remains with key %d", e.ID, k, e.Key)
		}
		delete(want, e.ID)
	}
	rep.Lost = len(want)
	if rep.Lost > maxLost {
		// Name one witness; pick the smallest ID so the message is stable.
		var wid uint64
		var wkey int64
		first := true
		for id, k := range want {
			if first || id < wid {
				wid, wkey, first = id, k, false
			}
		}
		return nil, fmt.Errorf("quality: %d elements lost (allowance %d), e.g. id %d (key %d) inserted, never delivered, and missing from the remainder",
			rep.Lost, maxLost, wid, wkey)
	}

	if len(rep.Ranks) > 0 {
		sorted := append([]int(nil), rep.Ranks...)
		sort.Ints(sorted)
		sum := 0
		for _, r := range sorted {
			sum += r
		}
		rep.MeanRank = float64(sum) / float64(len(sorted))
		rep.P99Rank = sorted[(len(sorted)*99)/100]
		rep.MaxRank = sorted[len(sorted)-1]
	}
	return rep, nil
}

// Bound returns the rank-error bound for a P-shard choice-of-two queue:
// a mean bound linear in P and a p99 bound of O(P·log P) shape, both with
// generous constants so the check flags broken sampling (a shard that
// never drains, a biased picker) without flaking on scheduler noise.
func Bound(shards int) (maxMean float64, maxP99 int) {
	p := float64(shards)
	if p < 1 {
		p = 1
	}
	l := math.Log2(2 * p)
	return 8*p + 8, int(64*p*l) + 64
}

// CheckBound asserts the report's rank errors against Bound(shards).
func (r *Report) CheckBound(shards int) error {
	maxMean, maxP99 := Bound(shards)
	return r.checkEnvelope(fmt.Sprintf("%d shards", shards), maxMean, maxP99)
}

// BoundSpray returns the rank-error envelope for a spray queue shaped for
// p concurrent deleters: the SprayList delivers elements of rank
// O(p·log³ p) w.h.p. (Alistarh et al., SPAA 2015), and internal/spray's
// walk spans about 2·p·log²(p) bottom positions at full budget. The mean
// bound is O(p·log² p)-shaped (a spray lands uniformly inside its span)
// and the p99 bound is the full O(p·log³ p) with generous constants —
// again calibrated to flag a broken walk, not scheduler noise.
func BoundSpray(p int) (maxMean float64, maxP99 int) {
	fp := float64(p)
	if fp < 2 {
		fp = 2
	}
	l := math.Log2(2 * fp)
	return 4*fp*l*l + 16, int(16*fp*l*l*l) + 64
}

// CheckBoundSpray asserts the report's rank errors against BoundSpray(p).
func (r *Report) CheckBoundSpray(p int) error {
	maxMean, maxP99 := BoundSpray(p)
	return r.checkEnvelope(fmt.Sprintf("spray p=%d", p), maxMean, maxP99)
}

// checkEnvelope gates the mean and the p99 rank error, never the max:
// both queues' rank bounds hold with high probability, not surely, and a
// worker descheduled between its claim and its stamp inflates one
// delivery's rank arbitrarily. A single outlier is within contract while
// a fat tail is not; the max is reported by String only.
func (r *Report) checkEnvelope(queue string, maxMean float64, maxP99 int) error {
	if r.MeanRank > maxMean {
		return fmt.Errorf("quality: mean rank error %.2f exceeds bound %.2f for %s", r.MeanRank, maxMean, queue)
	}
	if r.P99Rank > maxP99 {
		return fmt.Errorf("quality: p99 rank error %d exceeds bound %d for %s", r.P99Rank, maxP99, queue)
	}
	return nil
}

// String renders a one-line summary for test logs.
func (r *Report) String() string {
	return fmt.Sprintf("inserts=%d deletes=%d empties=%d (false=%d) rank mean=%.2f p99=%d max=%d",
		r.Inserts, r.Deletes, r.Empties, r.FalseEmpties, r.MeanRank, r.P99Rank, r.MaxRank)
}
