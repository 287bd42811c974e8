package core

import "skipqueue/internal/xrand"

// DeleteSpray is the SprayList's DeleteMin (Alistarh, Kopinsky, Li, Shavit,
// SPAA 2015) for relaxed queues: it removes a *near-minimal* element. One
// randomized descending walk starts height levels up at the head and hops
// forward a uniform number of nodes in [0, jump] on each level; from the
// landing node it claims the first unclaimed node with DeleteMin's claim
// CAS, and unlinks the victim with remove, which handles any claimed node.
// The hunt examines at most attempts·(jump+1) bottom-level nodes and loses
// at most attempts claims before giving up.
//
// ok is false when no claim landed; that is NOT an EMPTY certificate — only
// a full bottom-level scan (DeleteMin) may report EMPTY. collisions counts
// already-claimed nodes the hunt stepped over plus claims lost outright, the
// contention signal for the caller. Any stamped node is claimable (a claim
// from a random prefix cannot honor a start time); nothing is traced. seed
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

	// Claim hunt along the bottom level. Neither a half-linked node nor the
	// head (born claimed; a walk may never leave it, or bounce back onto
	// it) counts as a collision.
	var lost uint64
	for hunt := attempts * (jump + 1); hunt > 0 && curr != q.tail; hunt-- {
		s := curr.state.Load()
		if s >= 0 && s>>levelBits < linking {
			if curr.state.CompareAndSwap(s, -1<<levelBits|s&levelMask) {
				st := q.shard()
				st.deleteMins.Add(1)
				if lost != 0 {
					st.claimFails.Add(lost)
				}
				return curr.key, curr.seq, q.remove(st, curr), true, collisions
			}
			if lost++; lost >= uint64(attempts) {
				q.shard().claimFails.Add(lost)
				return key, 0, value, false, collisions + 1
			}
		}
		if s>>levelBits < linking && curr != q.head {
			collisions++
		}
		curr = curr.loadNext(0)
	}
	if lost != 0 {
		q.shard().claimFails.Add(lost)
	}
	return key, 0, value, false, collisions
}

// ScanSkips is Stats().ScanSkips alone, one load per shard:
// contention-adaptive callers (internal/spray) sample it around every Pop.
func (q *Queue[K, V]) ScanSkips() uint64 {
	var n uint64
	for i := range q.stats {
		n += q.stats[i].scanSkips.Load()
	}
	return n
}
