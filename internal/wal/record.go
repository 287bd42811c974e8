package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"skipqueue/internal/wire"
)

// The on-disk record frame. Every mutation of the durable queue — one push
// or one pop — is one frame:
//
//	uint32  length   big-endian, bytes of body (1..maxRecordBody)
//	uint32  crc      CRC32-C (Castagnoli) of body
//	body:
//	  uint8   op       opPush or opPop
//	  uint64  id       element identity (unique per queue lifetime)
//	  -- opPush only --
//	  int64   priority
//	  bytes   value    the element payload; may be empty
//
// The CRC sits in the frame header, not the tail, so a torn write — the
// only corruption a crash can produce under POSIX append semantics — is
// detected no matter where the tear lands: a torn header fails the length
// or CRC check, a torn body fails the CRC check. Records carry no LSN;
// a record's LSN is its ordinal position counted from the owning segment's
// header, which removes a whole class of disk/memory disagreement.

// Op discriminates record bodies. The lease protocol (internal/lease)
// adds three: opAck retires a leased element for good (a removal, like
// opPop), and opRequeue returns it to the queue with a rewritten value
// (an upsert, like opPush — the rewritten value carries the bumped
// delivery count, so redelivery accounting survives crashes and
// snapshot compaction). opLease is read, never written: older logs mark
// each grant with one, and replay treats it as liveness-neutral. A grant
// needs no record, because the element stays live until its ack.
const (
	opPush    byte = 0x01
	opPop     byte = 0x02
	opLease   byte = 0x03
	opAck     byte = 0x04
	opRequeue byte = 0x05
)

const (
	// recordHdrSize is the frame header: length + CRC.
	recordHdrSize = 4 + 4
	// pushFixedSize is a push body minus its value: op + id + priority.
	pushFixedSize = 1 + 8 + 8
	// popBodySize is a pop body: op + id.
	popBodySize = 1 + 8
	// maxRecordBody bounds one body. The value payload is already capped
	// by the wire protocol's frame budget; the slack covers the fixed
	// fields with room to spare.
	maxRecordBody = wire.DefaultMaxFrame + 64
)

// castagnoli is the CRC32-C table (the polynomial with hardware support on
// both amd64 and arm64, and the conventional choice for storage framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Typed decode errors. ErrTornRecord covers every way a record can be
// invalid — short header, short body, bad length, CRC mismatch, unknown op
// — because a reader cannot distinguish a torn final write from garbage,
// and must treat both the same way: stop replaying at the last good record.
var (
	ErrTornRecord = errors.New("wal: invalid or torn record")
)

// record is one decoded WAL record. Value aliases the decode buffer.
type record struct {
	op    byte
	id    uint64
	prio  int64
	value []byte
}

// appendPushRecord appends the framed encoding of a push to dst.
func appendPushRecord(dst []byte, id uint64, prio int64, value []byte) []byte {
	body := pushFixedSize + len(value)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // CRC backfilled below
	bodyAt := len(dst)
	dst = append(dst, opPush)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(prio))
	dst = append(dst, value...)
	binary.BigEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[bodyAt:], castagnoli))
	return dst
}

// appendPopRecord appends the framed encoding of a pop to dst.
func appendPopRecord(dst []byte, id uint64) []byte {
	return appendIDRecord(dst, opPop, id)
}

// appendIDRecord appends an id-only record (opPop, opLease, opAck).
func appendIDRecord(dst []byte, op byte, id uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, popBodySize)
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	bodyAt := len(dst)
	dst = append(dst, op)
	dst = binary.BigEndian.AppendUint64(dst, id)
	binary.BigEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[bodyAt:], castagnoli))
	return dst
}

// appendRequeueRecord appends the framed encoding of a requeue — the
// same body shape as a push, under its own op so replay statistics and
// debugging tools can tell redeliveries from first deliveries.
func appendRequeueRecord(dst []byte, id uint64, prio int64, value []byte) []byte {
	body := pushFixedSize + len(value)
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	bodyAt := len(dst)
	dst = append(dst, opRequeue)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = binary.BigEndian.AppendUint64(dst, uint64(prio))
	dst = append(dst, value...)
	binary.BigEndian.PutUint32(dst[crcAt:], crc32.Checksum(dst[bodyAt:], castagnoli))
	return dst
}

// frameLen validates a frame header and returns its body length.
func frameLen(hdr []byte) (int, error) {
	n := int(binary.BigEndian.Uint32(hdr))
	if n < popBodySize || n > maxRecordBody {
		return 0, fmt.Errorf("%w: body length %d", ErrTornRecord, n)
	}
	return n, nil
}

// decodeRecord decodes one framed record from the front of data, returning
// the record and the total frame size consumed. Any invalid byte — short
// frame, oversized length, CRC mismatch, unknown op, malformed body —
// returns ErrTornRecord; decodeRecord never panics on hostile input.
func decodeRecord(data []byte) (record, int, error) {
	if len(data) < recordHdrSize {
		return record{}, 0, fmt.Errorf("%w: %d header bytes", ErrTornRecord, len(data))
	}
	n, err := frameLen(data)
	if err != nil {
		return record{}, 0, err
	}
	if len(data) < recordHdrSize+n {
		return record{}, 0, fmt.Errorf("%w: %d of %d body bytes", ErrTornRecord, len(data)-recordHdrSize, n)
	}
	want := binary.BigEndian.Uint32(data[4:])
	body := data[recordHdrSize : recordHdrSize+n]
	if crc32.Checksum(body, castagnoli) != want {
		return record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrTornRecord)
	}
	rec := record{op: body[0], id: binary.BigEndian.Uint64(body[1:9])}
	switch rec.op {
	case opPush, opRequeue:
		if n < pushFixedSize {
			return record{}, 0, fmt.Errorf("%w: push body %d bytes", ErrTornRecord, n)
		}
		rec.prio = int64(binary.BigEndian.Uint64(body[9:17]))
		rec.value = body[pushFixedSize:]
	case opPop, opLease, opAck:
		if n != popBodySize {
			return record{}, 0, fmt.Errorf("%w: pop body %d bytes", ErrTornRecord, n)
		}
	default:
		return record{}, 0, fmt.Errorf("%w: op 0x%02x", ErrTornRecord, rec.op)
	}
	return rec, recordHdrSize + n, nil
}

// readRecords decodes consecutive records from r, calling fn for each, and
// returns the number of cleanly consumed bytes and records. It holds one
// frame at a time in a reused buffer, so rec.value is valid only during
// fn. It stops at a clean end of r (err == nil) or at the first invalid
// or short record (err wraps ErrTornRecord); the bytes past the returned
// offset are exactly the torn/garbage tail a recovery should truncate. Any
// other read error is returned as is: it says nothing about the data.
func readRecords(r io.Reader, fn func(rec record)) (consumed int64, records int, err error) {
	frame := make([]byte, recordHdrSize, 256)
	for {
		if _, err := io.ReadFull(r, frame[:recordHdrSize]); err != nil {
			if err == io.EOF {
				return consumed, records, nil
			}
			return consumed, records, shortRead(err, "header")
		}
		n, err := frameLen(frame)
		if err != nil {
			return consumed, records, err
		}
		frame = slices.Grow(frame[:recordHdrSize], n)[:recordHdrSize+n]
		if _, err := io.ReadFull(r, frame[recordHdrSize:]); err != nil {
			return consumed, records, shortRead(err, "body")
		}
		rec, size, err := decodeRecord(frame)
		if err != nil {
			return consumed, records, err
		}
		consumed += int64(size)
		records++
		fn(rec)
	}
}

// shortRead classifies a failed io.ReadFull: running out of bytes is a
// torn record, anything else an I/O error.
func shortRead(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: short %s", ErrTornRecord, what)
	}
	return err
}
