package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// File naming and the snapshot format.
//
// Segment files are `wal-<first LSN>.seg`, snapshot files
// `snap-<cut LSN>.snap`; both carry the LSN zero-padded to 20 digits so
// lexicographic order is LSN order. A segment starts with a 16-byte header
// (magic + first LSN) and then holds record frames (record.go) back to
// back; a record's LSN is the header LSN plus its ordinal.
//
// A snapshot is the live multiset at cut C — every element whose push has
// LSN ≤ C and whose pop (if any) has LSN > C:
//
//	8  bytes  magic "SQSNAP1\n"
//	uint64    cut LSN
//	uint64    element count
//	count ×   { uint64 id | int64 priority | uint32 vlen | value }
//	uint32    CRC32-C of everything after the magic
//
// Snapshots are written to a temp file, fsynced, and renamed into place,
// so a crash mid-write never produces a visible half-snapshot; the
// directory fsync after the rename makes the rename itself durable before
// any segment is deleted.

var (
	segMagic  = []byte("SQWAL1\n\x00")
	snapMagic = []byte("SQSNAP1\n")
)

const segHdrSize = 8 + 8

func segmentName(start uint64) string { return fmt.Sprintf("wal-%020d.seg", start) }
func snapshotName(cut uint64) string  { return fmt.Sprintf("snap-%020d.snap", cut) }

// parseLSN extracts the LSN out of a segment or snapshot file name;
// ok is false for foreign files.
func parseLSN(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segmentHeader renders the 16-byte segment header.
func segmentHeader(start uint64) []byte {
	hdr := make([]byte, 0, segHdrSize)
	hdr = append(hdr, segMagic...)
	return binary.BigEndian.AppendUint64(hdr, start)
}

// parseSegmentHeader validates a segment prefix and returns its first LSN.
func parseSegmentHeader(data []byte) (uint64, error) {
	if len(data) < segHdrSize || string(data[:8]) != string(segMagic) {
		return 0, fmt.Errorf("%w: segment header", ErrTornRecord)
	}
	return binary.BigEndian.Uint64(data[8:16]), nil
}

// Item is one live element of the durable queue: identity, priority, and
// the raw payload (without the internal id framing Queue adds for the
// in-memory backend).
type Item struct {
	ID       uint64
	Priority int64
	Value    []byte
}

const (
	// ioBufBytes is the buffer a snapshot or segment streams through:
	// neither is ever held whole in memory.
	ioBufBytes = 64 << 10
	// snapEntryHdr is a snapshot entry's fixed part: id, priority, vlen.
	snapEntryHdr = 8 + 8 + 4
	// maxSnapValue bounds a snapshot value as maxRecordBody bounds the
	// record it came from, so a corrupt vlen cannot size an allocation.
	maxSnapValue = maxRecordBody - pushFixedSize
)

// writeSnapshot atomically writes a snapshot at cut into dir and returns
// the number of bytes written. each must call emit exactly count times;
// the file streams through a bounded buffer with an incremental CRC.
func writeSnapshot(dir string, cut uint64, count int, each func(emit func(Item)) error) (int64, error) {
	tmp := filepath.Join(dir, snapshotName(cut)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, ioBufBytes)
	var crc uint32
	var size int64
	put := func(p []byte) {
		crc = crc32.Update(crc, castagnoli, p)
		size += int64(len(p))
		w.Write(p) // bufio errors are sticky: Flush reports them
	}
	var hdr [snapEntryHdr]byte
	w.Write(snapMagic)
	size += int64(len(snapMagic))
	binary.BigEndian.PutUint64(hdr[:], cut)
	binary.BigEndian.PutUint64(hdr[8:], uint64(count))
	put(hdr[:16])
	emitted := 0
	err = each(func(it Item) {
		binary.BigEndian.PutUint64(hdr[:], it.ID)
		binary.BigEndian.PutUint64(hdr[8:], uint64(it.Priority))
		binary.BigEndian.PutUint32(hdr[16:], uint32(len(it.Value)))
		put(hdr[:])
		put(it.Value)
		emitted++
	})
	if err == nil && emitted != count {
		err = fmt.Errorf("wal: snapshot at %d: %d items emitted, %d declared", cut, emitted, count)
	}
	if err == nil {
		binary.BigEndian.PutUint32(hdr[:], crc)
		w.Write(hdr[:4])
		size += 4
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName(cut))); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return size, nil
}

// readSnapshot streams one snapshot file through a bounded buffer, calling
// fn for each item (its Value is valid only during fn), and returns the
// cut and item count. Any malformed byte fails the whole file — a snapshot
// is all-or-nothing, unlike the tail-tolerant segment replay — but the CRC
// is only known at the end, so a caller must discard what fn saw when err
// is non-nil. reserve is called once before the first item with the
// declared count, bounded by the entries the file's bytes can hold, so a
// corrupt count cannot size an allocation.
func readSnapshot(path string, reserve func(n int), fn func(Item)) (cut uint64, count int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, ioBufBytes)
	name := filepath.Base(path)
	hdr := make([]byte, len(snapMagic)+16)
	if _, err := io.ReadFull(r, hdr); err != nil || string(hdr[:len(snapMagic)]) != string(snapMagic) {
		return 0, 0, fmt.Errorf("wal: %s: not a snapshot", name)
	}
	crc := crc32.Update(0, castagnoli, hdr[len(snapMagic):])
	cut = binary.BigEndian.Uint64(hdr[len(snapMagic):])
	n := binary.BigEndian.Uint64(hdr[len(snapMagic)+8:])
	if st, err := f.Stat(); err == nil {
		reserve(int(min(n, uint64(max(st.Size()-int64(len(hdr)), 0))/snapEntryHdr)))
	}
	var ent [snapEntryHdr]byte
	var val []byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(r, ent[:]); err != nil {
			return 0, 0, fmt.Errorf("wal: %s: truncated snapshot entry", name)
		}
		vlen := binary.BigEndian.Uint32(ent[16:])
		if vlen > maxSnapValue {
			return 0, 0, fmt.Errorf("wal: %s: snapshot value of %d bytes", name, vlen)
		}
		val = slices.Grow(val[:0], int(vlen))[:vlen]
		if _, err := io.ReadFull(r, val); err != nil {
			return 0, 0, fmt.Errorf("wal: %s: truncated snapshot value", name)
		}
		crc = crc32.Update(crc32.Update(crc, castagnoli, ent[:]), castagnoli, val)
		fn(Item{
			ID:       binary.BigEndian.Uint64(ent[:]),
			Priority: int64(binary.BigEndian.Uint64(ent[8:])),
			Value:    val,
		})
	}
	if _, err := io.ReadFull(r, ent[:4]); err != nil {
		return 0, 0, fmt.Errorf("wal: %s: truncated snapshot CRC", name)
	}
	if crc != binary.BigEndian.Uint32(ent[:4]) {
		return 0, 0, fmt.Errorf("wal: %s: snapshot CRC mismatch", name)
	}
	if extra, _ := io.Copy(io.Discard, r); extra != 0 {
		return 0, 0, fmt.Errorf("wal: %s: %d trailing snapshot bytes", name, extra)
	}
	return cut, int(n), nil
}

// listDir enumerates the segments (by ascending first LSN) and snapshots
// (by ascending cut) present in dir.
func listDir(dir string) (segs []segment, snaps []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if start, ok := parseLSN(name, "wal-", ".seg"); ok {
			segs = append(segs, segment{start: start, path: filepath.Join(dir, name)})
		} else if _, ok := parseLSN(name, "snap-", ".snap"); ok {
			snaps = append(snaps, filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	sort.Strings(snaps)
	return segs, snaps, nil
}
