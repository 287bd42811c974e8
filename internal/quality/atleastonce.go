// At-least-once delivery analysis: the companion of Analyze for lease
// histories. A leased queue deliberately delivers an element more than
// once (expiry, nack, crash), so conservation's "nothing is delivered
// twice" is the wrong hard invariant. What must hold instead:
//
//  1. No phantoms: every delivery and every ack names an inserted
//     element.
//  2. Ack is final: an element is acked at most once, an ack follows at
//     least one delivery of the element, and no delivery of the element
//     serializes after its ack.
//  3. Nothing is lost: after a drained run, every inserted element is
//     either acked or still present (main queue, delay heap, or
//     dead-letter queue). AnalyzeAtLeastOnceCrash tolerates a bounded
//     allowance for acks that went durable while the consumer's own
//     record of them died with its process.
//
// Redelivery is not a violation — it is the mechanism — so the report
// quantifies it (total redeliveries, per-element maximum) instead of
// rejecting it.

package quality

import (
	"fmt"
	"sort"
)

// DKind is a delivery-history event type.
type DKind uint8

const (
	// DInsert records element ID entering the queue with priority Key.
	DInsert DKind = iota
	// DDeliver records element ID being handed to a consumer (a lease
	// grant or a plain pop).
	DDeliver
	// DAck records element ID being acknowledged — retired for good.
	DAck
)

// DeliveryEvent is one event of an at-least-once history. Stamp orders
// the replay; ties replay inserts first, then deliveries, then acks.
type DeliveryEvent struct {
	Kind  DKind
	ID    uint64
	Key   int64
	Stamp int64
}

// AtLeastOnceReport summarizes a verified delivery history.
type AtLeastOnceReport struct {
	Inserts    int // DInsert events
	Deliveries int // DDeliver events
	Acked      int // elements acked
	// Redeliveries counts deliveries beyond each element's first.
	Redeliveries int
	// MaxDeliveries is the largest per-element delivery count.
	MaxDeliveries int
	// Remaining is how many inserted elements were never acked and were
	// found again when the queue drained (redelivery owed, not loss).
	Remaining int
	// Lost counts inserted elements neither acked nor present afterwards.
	// Zero under Analyze; bounded by the allowance under the Crash
	// variant.
	Lost int
}

// AnalyzeAtLeastOnce verifies an at-least-once delivery history against
// the elements remaining in the queue after the run (include the
// dead-letter queue's). It returns a non-nil error exactly when a hard
// invariant breaks: phantom deliveries or acks, double acks, delivery
// after ack, acks of never-delivered elements, or lost elements.
func AnalyzeAtLeastOnce(events []DeliveryEvent, remaining []Element) (*AtLeastOnceReport, error) {
	return analyzeALO(events, remaining, 0)
}

// AnalyzeAtLeastOnceCrash is AnalyzeAtLeastOnce for histories recorded
// across consumer crashes: up to maxLost elements may be missing without
// failing the check, for exactly the shape where an ack went durable but
// the consumer died before recording that it sent it — the element is
// gone from the queue and from the ack log, indistinguishable from loss.
// Everything else stays a hard error; a crash never justifies a phantom,
// a double ack, or a post-ack delivery.
func AnalyzeAtLeastOnceCrash(events []DeliveryEvent, remaining []Element, maxLost int) (*AtLeastOnceReport, error) {
	return analyzeALO(events, remaining, maxLost)
}

func analyzeALO(events []DeliveryEvent, remaining []Element, maxLost int) (*AtLeastOnceReport, error) {
	ops := append([]DeliveryEvent(nil), events...)
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].Stamp != ops[j].Stamp {
			return ops[i].Stamp < ops[j].Stamp
		}
		return ops[i].Kind < ops[j].Kind
	})

	rep := &AtLeastOnceReport{}
	inserted := map[uint64]int64{} // ID → key
	delivered := map[uint64]int{}  // ID → delivery count
	acked := map[uint64]struct{}{}

	for _, ev := range ops {
		switch ev.Kind {
		case DInsert:
			if _, dup := inserted[ev.ID]; dup {
				return rep, fmt.Errorf("quality: element %d inserted twice", ev.ID)
			}
			inserted[ev.ID] = ev.Key
			rep.Inserts++
		case DDeliver:
			key, ok := inserted[ev.ID]
			if !ok {
				return rep, fmt.Errorf("quality: phantom delivery of element %d", ev.ID)
			}
			if key != ev.Key {
				return rep, fmt.Errorf("quality: element %d delivered with key %d, inserted with %d", ev.ID, ev.Key, key)
			}
			if _, done := acked[ev.ID]; done {
				return rep, fmt.Errorf("quality: element %d delivered after its ack", ev.ID)
			}
			delivered[ev.ID]++
			rep.Deliveries++
			if n := delivered[ev.ID]; n > rep.MaxDeliveries {
				rep.MaxDeliveries = n
			}
			if delivered[ev.ID] > 1 {
				rep.Redeliveries++
			}
		case DAck:
			if _, ok := inserted[ev.ID]; !ok {
				return rep, fmt.Errorf("quality: phantom ack of element %d", ev.ID)
			}
			if delivered[ev.ID] == 0 {
				return rep, fmt.Errorf("quality: element %d acked without a delivery", ev.ID)
			}
			if _, dup := acked[ev.ID]; dup {
				return rep, fmt.Errorf("quality: element %d acked twice", ev.ID)
			}
			acked[ev.ID] = struct{}{}
			rep.Acked++
		default:
			return rep, fmt.Errorf("quality: unknown event kind %d", ev.Kind)
		}
	}

	// Settle the leftovers: each remaining element must be an inserted,
	// unacked one; each inserted, unacked element must remain.
	left := map[uint64]int64{}
	for _, e := range remaining {
		if _, dup := left[e.ID]; dup {
			return rep, fmt.Errorf("quality: element %d remains twice", e.ID)
		}
		left[e.ID] = e.Key
	}
	for id, key := range left {
		want, ok := inserted[id]
		if !ok {
			return rep, fmt.Errorf("quality: phantom remainder element %d", id)
		}
		if want != key {
			return rep, fmt.Errorf("quality: remainder element %d has key %d, inserted with %d", id, key, want)
		}
		if _, done := acked[id]; done {
			return rep, fmt.Errorf("quality: acked element %d resurrected", id)
		}
		rep.Remaining++
	}
	for id := range inserted {
		if _, done := acked[id]; done {
			continue
		}
		if _, ok := left[id]; !ok {
			rep.Lost++
		}
	}
	if rep.Lost > maxLost {
		return rep, fmt.Errorf("quality: %d unacked elements neither remain nor were acked (allowance %d)", rep.Lost, maxLost)
	}
	return rep, nil
}

// String renders the report for test logs.
func (r *AtLeastOnceReport) String() string {
	return fmt.Sprintf("inserts=%d deliveries=%d acked=%d redeliveries=%d maxDeliveries=%d remaining=%d lost=%d",
		r.Inserts, r.Deliveries, r.Acked, r.Redeliveries, r.MaxDeliveries, r.Remaining, r.Lost)
}
