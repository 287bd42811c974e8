package core

import "skipqueue/internal/xrand"

// DeleteSpray is the SprayList's DeleteMin (Alistarh, Kopinsky, Li, Shavit,
// SPAA 2015) for relaxed queues: it removes a *near-minimal* element. One
// randomized descending walk starts height levels up at the head and hops
// forward a uniform number of nodes in [0, jump] on each level; from the
// landing node it claims the first unclaimed node with DeleteMin's ticket
// SWAP, and unlinks the victim with remove, which handles any claimed node.
// The hunt examines at most attempts·(jump+1) bottom-level nodes and loses
// at most attempts claims before giving up.
//
// ok is false when no claim landed; that is NOT an EMPTY certificate — only
// a full bottom-level scan (DeleteMin) may report EMPTY. collisions counts
// already-claimed nodes the hunt stepped over plus claims lost outright, the
// contention signal for the caller. The timestamp test is skipped (a claim
// drawn from a random prefix cannot honor it) and nothing is traced. seed
// drives the walk; pass a fresh draw per call so concurrent sprayers land on
// different prefixes.
func (q *Queue[K, V]) DeleteSpray(height, jump, attempts int, seed uint64) (key K, seq uint64, value V, ok bool, collisions int) {
	height = min(max(height, 1), q.cfg.MaxLevel)
	jump, attempts = max(jump, 1), max(attempts, 1)
	rng := xrand.NewSplitMix64(seed)

	// Descending walk. Following a removed node's backward pointer only
	// shifts the landing point back toward the head; every hop stays on a
	// level the current node's tower has.
	curr := q.head
	for level := height - 1; level >= 0; level-- {
		for hops := rng.Next() % uint64(jump+1); hops > 0; hops-- {
			next := curr.loadNext(level)
			if next == q.tail {
				break
			}
			curr = next
		}
	}

	// Claim hunt along the bottom level. The sentinel head is born marked,
	// so a walk that never left it (or bounced back onto it) steps off it
	// here without counting a collision.
	lost := 0
	for hunt := attempts * (jump + 1); hunt > 0 && curr != q.tail; hunt-- {
		if curr.deleted.Load() == 0 {
			if curr.deleted.CompareAndSwap(0, q.clock.Now()) {
				if v := curr.value.Swap(nil); v != nil {
					value = *v
				}
				q.size.Add(-1)
				q.stats.deleteMins.Add(1)
				q.remove(curr)
				return curr.key, curr.seq, value, true, collisions
			}
			q.obs.claimFails.Add(1)
			if lost++; lost >= attempts {
				return key, 0, value, false, collisions + 1
			}
		}
		if curr != q.head {
			collisions++
		}
		curr = curr.loadNext(0)
	}
	return key, 0, value, false, collisions
}

// ScanSkips is Stats().ScanSkips in one atomic load: contention-adaptive
// callers (internal/spray) sample it around every Pop.
func (q *Queue[K, V]) ScanSkips() uint64 { return q.stats.scanSkips.Load() }
