// Package wal is pqd's durability subsystem: a write-ahead log plus
// snapshot/compaction layer that makes a served priority queue crash-safe
// without giving up the throughput the rest of the repository fights for.
//
// The design follows the same amortization lesson as the server's
// micro-batching: the expensive step — fsync — is paid once per *batch* of
// records, not once per operation. Producers append encoded push/pop
// records to an in-memory batch under a short mutex. In sync mode, Commit
// blocks until the caller's records are durable, and the first committer
// to find no flush in flight leads one: it writes and fsyncs the whole
// pending batch, its followers' records included, on its own goroutine.
// Committers arriving during that fsync park and form the next batch. In
// async mode Commit returns immediately and a syncer goroutine flushes on
// a size or time watermark (Config.SyncInterval, ~1ms). That is the
// latency/safety dial a deployment wants.
//
// Storage is a sequence of segment files framed by CRC32-C records
// (record.go) plus snapshots of the live queue (snapshot.go). Recovery
// (recover.go) replays every retained segment and the newest valid
// snapshot, both streamed, tolerates a torn final record, and returns the
// live multiset. Queue (queue.go) is the multiset.Queue wrapper that ties
// it all together; it keeps no copy of the live multiset, because a
// snapshot is compacted from the log itself by the same replay.
//
// Invariants the subsystem maintains (docs/PERSISTENCE.md proves them):
//
//  1. ACK implies durability (sync mode): a response frame leaves the
//     server only after the records of every operation in its batch are
//     covered by an fsync.
//  2. A pop record is appended only after its element left the in-memory
//     structure, and its push record always precedes it in LSN order.
//  3. A snapshot's cut C is a segment boundary: it is the replay of the
//     previous snapshot and every segment holding records ≤ C, so with the
//     segments after C it reconstructs exactly the live multiset, and the
//     segments it read are deletable.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"skipqueue/internal/flight"
	"skipqueue/internal/obs"
)

// Mode selects the Commit contract.
type Mode int

const (
	// ModeSync makes Commit wait until the caller's records are fsynced:
	// an ACK implies durability. Group commit shares each fsync among
	// every committer that arrived while the previous one was in flight.
	ModeSync Mode = iota
	// ModeAsync makes Commit return immediately; records reach disk on
	// the next syncer wakeup. A crash can lose up to SyncInterval worth
	// of acknowledged operations.
	ModeAsync
)

// String names the mode for flags and logs.
func (m Mode) String() string {
	if m == ModeAsync {
		return "async"
	}
	return "sync"
}

// ParseMode parses "sync" or "async".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "sync":
		return ModeSync, nil
	case "async":
		return ModeAsync, nil
	}
	return ModeSync, fmt.Errorf("wal: unknown mode %q (want sync or async)", s)
}

// Defaults for zero Config fields.
const (
	DefaultSyncInterval = time.Millisecond
	DefaultSegmentBytes = 64 << 20
)

// stallAfter is the fsync latency above which a sync is counted as a
// stall (sync.stalls) and captured as a flight anomaly.
const stallAfter = 50 * time.Millisecond

// batchBytes is the async-mode size watermark: an append that brings the
// pending batch past it kicks the syncer immediately instead of waiting
// out the interval. Sync mode ignores it.
const batchBytes = 256 << 10

// Config configures a Log. Dir is required.
type Config struct {
	// Dir is the directory holding segment and snapshot files. It must
	// exist and be writable; one Log owns it at a time.
	Dir string
	// Mode selects the Commit contract (sync by default).
	Mode Mode
	// SyncInterval is the async-mode flush window: the syncer flushes and
	// fsyncs at least this often while records are pending. Sync mode has
	// no syncer and ignores it.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment once it grows past this.
	SegmentBytes int64
	// SnapshotSegments is the compaction trigger for OpenQueue: once the
	// on-disk segment count exceeds it, the sealed segments are compacted
	// into a snapshot in the background and then deleted.
	// 0 selects the default (4); negative disables automatic snapshots
	// (they still happen on Close).
	SnapshotSegments int
	// Flight, if non-nil, receives fsync-stall and torn-tail anomalies.
	Flight *flight.Recorder

	// onRotate, if non-nil, is called on the flushing goroutine after each
	// size-triggered segment rotation with the number of on-disk segments.
	// Queue sets it to trigger compaction; it must not block.
	onRotate func(segments int)
}

func (cfg *Config) fillDefaults() {
	if cfg.SyncInterval <= 0 {
		cfg.SyncInterval = DefaultSyncInterval
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
}

// probes is the "skipqueue.wal" observability set (docs/OBSERVABILITY.md).
// The log always counts.
type probes struct {
	set *obs.Set

	appendRecords *obs.Counter // records appended (pushes + pops)
	appendBytes   *obs.Counter // encoded record bytes appended
	syncStalls    *obs.Counter // fsyncs slower than stallAfter
	rotated       *obs.Counter // segment rotations
	dropped       *obs.Counter // segments deleted by snapshot compaction
	snapshots     *obs.Counter // snapshots written
	snapFailed    *obs.Counter // background compactions that returned an error
	snapshotBytes *obs.Counter // snapshot bytes written
	recoveryRecs  *obs.Counter // records replayed by recovery
	tornTails     *obs.Counter // torn final records truncated by recovery

	syncBatch *obs.Hist // records per fsync
	fsync     *obs.Hist // fsync latency
	commitWt  *obs.Hist // Commit wait latency (sync mode)
}

func newProbes() probes {
	set := obs.NewSet("skipqueue.wal")
	return probes{
		set:           set,
		appendRecords: set.Counter("append.records"),
		appendBytes:   set.Counter("append.bytes"),
		syncStalls:    set.Counter("sync.stalls"),
		rotated:       set.Counter("segments.rotated"),
		dropped:       set.Counter("segments.dropped"),
		snapshots:     set.Counter("snapshots"),
		snapFailed:    set.Counter("snapshots.failed"),
		snapshotBytes: set.Counter("snapshot.bytes"),
		recoveryRecs:  set.Counter("recovery.records"),
		tornTails:     set.Counter("recovery.torn_tails"),
		syncBatch:     set.Values("sync.batch"),
		fsync:         set.Durations("sync.fsync"),
		commitWt:      set.Durations("commit.wait"),
	}
}

// segment is one on-disk segment: the LSN of its first record and its path.
type segment struct {
	start uint64
	path  string
}

// Log is the group-commit write-ahead log. Construct with Open; appenders
// may call AppendPush/AppendPop/Commit from any number of goroutines.
type Log struct {
	cfg Config
	obs probes

	mu      sync.Mutex
	cond    *sync.Cond // broadcast when durable advances or the log closes
	buf     []byte     // pending encoded records
	bufRecs int
	lastLSN uint64 // LSN of the newest appended record
	durable uint64 // LSN through which records are fsynced
	file    *os.File
	segSize int64
	segs    []segment // every on-disk segment, oldest first; last is active
	closed  bool

	flushing  bool          // a flush is writing the batch it took
	waiters   int           // committers parked until a flush finishes
	lastFlush time.Duration // write+fsync time of the last non-empty flush

	kick chan struct{} // wakes the async syncer before the interval elapses
	done chan struct{} // async syncer exited (closed at Open in sync mode)
}

// Open creates a Log writing to cfg.Dir, beginning a fresh segment after
// whatever rec (a prior Recover of the same directory, or nil for a fresh
// one) left behind. Open takes ownership of the retained segments for
// compaction accounting and seeds the recovery probes.
func Open(cfg Config, rec *RecoverResult) (*Log, error) {
	cfg.fillDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: Config.Dir is required")
	}
	nextLSN := uint64(1)
	var retained []segment
	if rec != nil {
		nextLSN = rec.NextLSN
		retained = rec.retained
	}
	l := &Log{
		cfg:     cfg,
		obs:     newProbes(),
		lastLSN: nextLSN - 1,
		durable: nextLSN - 1,
		segs:    append([]segment(nil), retained...),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.openSegment(nextLSN); err != nil {
		return nil, err
	}
	if rec != nil {
		l.obs.recoveryRecs.Add(uint64(rec.Records))
		if rec.TornTail {
			l.obs.tornTails.Inc()
		}
	}
	if cfg.Mode == ModeAsync {
		go l.syncer()
	} else {
		close(l.done)
	}
	return l, nil
}

// Snapshot reads the log's probe set, "skipqueue.wal".
func (l *Log) Snapshot() obs.Snapshot { return l.obs.set.Snapshot() }

// openSegment creates the segment file whose first record is LSN start and
// makes it the active segment. Caller must not hold l.mu (Open) or must
// hold it (rotation); the method itself takes no lock and mutates l.file,
// l.segSize and l.segs, so rotation calls it under l.mu.
func (l *Log) openSegment(start uint64) error {
	path := filepath.Join(l.cfg.Dir, segmentName(start))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	hdr := segmentHeader(start)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	l.file = f
	l.segSize = int64(len(hdr))
	l.segs = append(l.segs, segment{start: start, path: path})
	return nil
}

// AppendPush appends a push record for element id and returns its LSN.
// The record is durable only once Commit (sync mode) or a later Sync
// returns. value is copied into the batch; the caller keeps ownership.
func (l *Log) AppendPush(id uint64, prio int64, value []byte) uint64 {
	return l.append(record{op: opPush, id: id, prio: prio, value: value})
}

// AppendPop appends a pop record for element id and returns its LSN.
func (l *Log) AppendPop(id uint64) uint64 {
	return l.append(record{op: opPop, id: id})
}

// AppendAck appends an ack record for element id: the leased element is
// retired for good (a removal, like a pop).
func (l *Log) AppendAck(id uint64) uint64 {
	return l.append(record{op: opAck, id: id})
}

// AppendRequeue appends a requeue record: the leased element returns to
// the queue with a rewritten value (the bumped delivery header).
func (l *Log) AppendRequeue(id uint64, prio int64, value []byte) uint64 {
	return l.append(record{op: opRequeue, id: id, prio: prio, value: value})
}

// append encodes r into the pending batch and returns its LSN.
func (l *Log) append(r record) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	before := len(l.buf)
	l.buf = appendRecord(l.buf, r)
	l.lastLSN++
	l.bufRecs++
	l.obs.appendRecords.Inc()
	l.obs.appendBytes.Add(uint64(len(l.buf) - before))
	if len(l.buf) >= batchBytes {
		l.wake()
	}
	return l.lastLSN
}

// wake kicks the async syncer without blocking.
func (l *Log) wake() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// DurableLSN returns the LSN through which records are fsynced.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Commit makes the ACK-side durability promise: in sync mode it blocks
// until every record appended before the call is fsynced; in async mode it
// returns immediately. It returns an error only when the log was closed
// before the records became durable.
func (l *Log) Commit() error {
	if l.cfg.Mode == ModeAsync {
		return nil
	}
	return l.Sync()
}

// Sync blocks until every record appended before the call is fsynced,
// regardless of mode — the drain path's final barrier. A caller that finds
// no flush in flight leads one; otherwise it parks until the flush in
// flight finishes and, if its records are still pending, may lead the next.
func (l *Log) Sync() error {
	l.mu.Lock()
	target := l.lastLSN
	if l.durable >= target {
		l.mu.Unlock()
		return nil
	}
	t0 := time.Now()
	for l.durable < target && !l.closed {
		if l.flushing {
			l.waiters++
			l.cond.Wait()
			l.waiters--
		} else {
			l.flush()
		}
	}
	ok := l.durable >= target
	l.mu.Unlock()
	l.obs.commitWt.Since(t0)
	if !ok {
		return fmt.Errorf("wal: log closed before LSN %d became durable", target)
	}
	return nil
}

// syncer is the async-mode flush loop: it flushes pending records every
// SyncInterval, or sooner when an appender trips the size watermark.
func (l *Log) syncer() {
	defer close(l.done)
	t := time.NewTicker(l.cfg.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-l.kick:
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return
		}
		if !l.flushing {
			l.flush()
		}
		l.mu.Unlock()
	}
}

// linger delays the batch grab while records are still arriving: after a
// barrier releases its committers they race to append their next records,
// and grabbing immediately would fragment the group commit into one- and
// two-record fsyncs. flush calls it only while other committers are
// parked, so a lone committer never waits. The loop exits the moment
// arrivals stop, and the previous write+fsync time bounds it: lingering
// longer than one flush takes would cost more than the flush it saves.
// Caller holds l.mu; linger releases it while yielding.
func (l *Log) linger() {
	deadline := time.Now().Add(l.lastFlush)
	prev := l.bufRecs
	for time.Now().Before(deadline) {
		l.mu.Unlock()
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
		l.mu.Lock()
		if l.bufRecs == prev {
			return
		}
		prev = l.bufRecs
	}
}

// flush writes and fsyncs the pending batch, advances the durable LSN,
// and rotates the segment when it grew past the budget. The caller holds
// l.mu and has found no flush in flight; flush releases l.mu for the I/O
// and returns with it held.
func (l *Log) flush() {
	l.flushing = true
	if l.cfg.Mode == ModeSync && l.waiters > 0 {
		l.linger()
	}
	batch := l.buf
	recs := l.bufRecs
	covered := l.lastLSN
	l.buf = nil
	l.bufRecs = 0
	file := l.file
	l.mu.Unlock()

	var d time.Duration
	if len(batch) > 0 {
		t0 := time.Now()
		_, werr := file.Write(batch)
		if werr == nil {
			werr = file.Sync()
		}
		d = time.Since(t0)
		l.obs.fsync.Observe(d)
		l.obs.syncBatch.ObserveN(uint64(recs))
		if d > stallAfter {
			l.obs.syncStalls.Inc()
			l.cfg.Flight.Anomaly(flight.KFsyncStall, 0, int64(d))
		}
		if werr != nil {
			// A failed write/fsync means durability can no longer be
			// promised; poison the log so the leader and every parked
			// committer fail instead of ACKing undurable work.
			l.mu.Lock()
			l.closed = true
			l.flushing = false
			l.cond.Broadcast()
			return
		}
	}

	l.mu.Lock()
	l.flushing = false
	l.durable = covered
	if d > 0 {
		l.lastFlush = d
	}
	l.segSize += int64(len(batch))
	rotated := l.segSize >= l.cfg.SegmentBytes && l.rotate() == nil
	l.cond.Broadcast()

	if rotated && l.cfg.onRotate != nil {
		segCount := len(l.segs)
		l.mu.Unlock()
		l.cfg.onRotate(segCount)
		l.mu.Lock()
	}
}

// rotate seals the active segment and opens the next one. The caller holds
// l.mu and no flush is in flight, so every record through l.durable is in
// the old file and the next one written is l.durable+1, even when records
// appended during the last flush are already pending. On error the old
// segment stays active.
func (l *Log) rotate() error {
	old := l.file
	if err := l.openSegment(l.durable + 1); err != nil {
		l.file = old
		return err
	}
	old.Close()
	l.obs.rotated.Inc()
	return nil
}

// seal puts every record appended before the call into a sealed segment:
// Sync waits out a flush in flight and leads a flush of the pending batch,
// then seal rotates under l.mu if the active segment holds any record.
func (l *Log) seal() error {
	if err := l.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.flushing {
		l.cond.Wait()
	}
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.segSize == segHdrSize {
		return nil
	}
	return l.rotate()
}

// sealed returns the segments no flush writes to again — all but the
// active one, or every segment once the log is closed — and the LSN of
// the last record in them.
func (l *Log) sealed() ([]segment, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return slices.Clone(l.segs), l.durable
	}
	n := len(l.segs) - 1
	return slices.Clone(l.segs[:n]), l.segs[n].start - 1
}

// dropSegmentsBefore deletes the longest prefix of segments whose records
// all carry LSN ≤ cut — exactly the records a snapshot at cut makes
// redundant. The active segment is never deleted.
func (l *Log) dropSegmentsBefore(cut uint64) {
	l.mu.Lock()
	keep := 0
	for keep < len(l.segs)-1 && l.segs[keep+1].start <= cut+1 {
		keep++
	}
	victims := append([]segment(nil), l.segs[:keep]...)
	l.segs = append(l.segs[:0], l.segs[keep:]...)
	l.mu.Unlock()

	for _, s := range victims {
		if err := os.Remove(s.path); err == nil {
			l.obs.dropped.Inc()
		}
	}
	if len(victims) > 0 {
		syncDir(l.cfg.Dir)
	}
}

// Segments returns the number of on-disk segments (including the active
// one).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Close flushes and fsyncs everything pending, stops the async syncer, and
// closes the active segment. Appends after Close are invalid.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wake()
	<-l.done

	// The syncer is gone and no new leader can start; wait out a flush in
	// flight, then run one final flush so every appended record is durable
	// before the file closes.
	l.mu.Lock()
	for l.flushing {
		l.cond.Wait()
	}
	l.flush()
	f := l.file
	l.mu.Unlock()
	return f.Close()
}

// syncDir fsyncs a directory, making renames and removals durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
