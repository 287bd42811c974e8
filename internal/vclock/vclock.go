// Package vclock provides the shared logical clock used by the SkipQueue's
// time-stamping mechanism (Section 3 of the paper) and by the timestamp-based
// garbage collection scheme.
//
// The paper assumes a machine-wide clock location that every processor can
// READ; the correctness proof in Section 4.2 only requires that the clock be
// monotone and that it totally orders the "insert completed" write against
// the "delete-min started" read. A fetch-and-add counter provides exactly
// that on real hardware, so the native implementation is an atomic counter.
// (The simulator provides its own cycle-accurate clock; see internal/sim.)
package vclock

import "sync/atomic"

// MaxTime is the timestamp carried by a node whose insertion has not yet
// completed (Figure 10, line 19 of the paper initializes timeStamp to
// MAX_TIME). Any DeleteMin that began before the insert finished will see
// MaxTime, which is greater than its own start time, and skip the node.
// internal/core keeps the tower height in the low byte of the same word,
// so its linking mark is MaxTime>>8 = 2^55 − 1, and every stamp a Clock
// hands out must stay below it: at one Now per nanosecond, a clock gets
// there only after more than a year.
const MaxTime = int64(1<<63 - 1)

// Clock is a shared monotone logical clock. The zero value is ready to use.
// All methods are safe for concurrent use.
type Clock struct {
	now atomic.Int64
}

// Now returns the current time and advances the clock. Advancing on every
// read keeps distinct events at distinct times, which makes the serialization
// argument of the correctness proof directly checkable in tests: an Insert's
// completion stamp and a DeleteMin's start stamp are never equal.
func (c *Clock) Now() int64 {
	return c.now.Add(1)
}

// Peek returns the current time without advancing the clock.
func (c *Clock) Peek() int64 {
	return c.now.Load()
}
