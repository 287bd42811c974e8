// Batch frames: the opcode-coalescing layer of the protocol.
//
// An OpBatch request frame carries many client operations in one frame;
// a StatusBatch response frame answers it with one status entry per
// operation, in operation order (the per-op status trailer). Both reuse
// the ordinary frame envelope — length prefix, kind, arg, optional trace
// trailer — so a batch frame pipelines, traces, and size-limits exactly
// like a single-op frame. The frame's Arg is the entry count, and Data is
// the concatenation of entries:
//
//	uint8   kind   a single-op request (OpInsert..OpPing) or response
//	               (StatusOK..StatusErr) kind; batches never nest
//	int64   arg    big-endian; same meaning as the single-op frame
//	uint32  dlen   big-endian, length of data
//	bytes   data   dlen bytes
//
// Untraced single-op frames are untouched by this extension: a client
// that never sends OpBatch emits byte-identical streams to the pre-batch
// protocol, and a pre-batch server rejects OpBatch with ErrBadKind — the
// same opt-in story as the trace trailer.
//
// Entry decoding never panics on hostile input: every malformed shape —
// truncated entry header, dlen past the end of the frame, an entry count
// that disagrees with the payload, a nested or misdirected entry kind —
// returns ErrBadBatch.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// ErrBadBatch means a batch frame's entry payload was malformed: torn
// entries, an entry count mismatch, or an entry kind that does not belong
// (responses inside an OpBatch, nested batches). Unlike the framing
// errors it is a semantic error on a well-framed frame; the server
// answers StatusErr and the connection stays usable.
var ErrBadBatch = errors.New("wire: malformed batch payload")

// entryHeaderSize is a batch entry's fixed prefix: kind + arg + dlen.
const entryHeaderSize = 1 + 8 + 4

// MaxBatchOps is the one cap on entries per batch frame. Both ends enforce
// it: the encoder refuses a longer batch, and the decoder refuses a larger
// declared count before it allocates, so a hostile count cannot force a
// giant slice.
const MaxBatchOps = 1024

// BatchEntry is one operation (request direction) or one status
// (response direction) inside a batch frame. Data aliases the enclosing
// frame's payload on decode; a retaining caller must copy.
type BatchEntry struct {
	Kind Kind
	Arg  int64
	Data []byte
}

// batchable reports whether k may appear as an entry of a batch frame in
// the given direction. Batch kinds themselves never nest.
func batchable(k Kind, request bool) bool {
	if request {
		return k.IsRequest() && k != OpBatch
	}
	return k.IsResponse() && k != StatusBatch
}

// AppendBatchEntry encodes one entry and appends it to dst. It fails
// with ErrBadBatch on a kind that cannot appear inside a batch (nested
// batches, invalid kinds) and ErrFrameTooBig on an oversized payload.
func AppendBatchEntry(dst []byte, e BatchEntry) ([]byte, error) {
	if !batchable(e.Kind, e.Kind.IsRequest()) {
		return dst, fmt.Errorf("%w: entry kind %v", ErrBadBatch, e.Kind)
	}
	if len(e.Data) > MaxData {
		return dst, fmt.Errorf("%w: %d byte entry payload", ErrFrameTooBig, len(e.Data))
	}
	dst = append(dst, byte(e.Kind))
	dst = binary.BigEndian.AppendUint64(dst, uint64(e.Arg))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Data)))
	return append(dst, e.Data...), nil
}

// NextBatchEntry decodes the first entry of data and returns it with the
// remaining bytes. request selects the direction entries must belong to
// (true inside OpBatch, false inside StatusBatch). The returned entry's
// Data aliases data.
func NextBatchEntry(data []byte, request bool) (BatchEntry, []byte, error) {
	if len(data) < entryHeaderSize {
		return BatchEntry{}, nil, fmt.Errorf("%w: %d bytes for an entry header", ErrBadBatch, len(data))
	}
	k := Kind(data[0])
	if !batchable(k, request) {
		return BatchEntry{}, nil, fmt.Errorf("%w: entry kind 0x%02x", ErrBadBatch, data[0])
	}
	e := BatchEntry{
		Kind: k,
		Arg:  int64(binary.BigEndian.Uint64(data[1:9])),
	}
	dlen := int(binary.BigEndian.Uint32(data[9:entryHeaderSize]))
	rest := data[entryHeaderSize:]
	if dlen > len(rest) {
		return BatchEntry{}, nil, fmt.Errorf("%w: entry claims %d data bytes, %d remain", ErrBadBatch, dlen, len(rest))
	}
	e.Data = rest[:dlen:dlen]
	return e, rest[dlen:], nil
}

// AppendBatch encodes a whole batch frame — entries packed into one
// OpBatch (request entries) or StatusBatch (response entries) frame —
// and appends it to dst. trace/sendNano ride the ordinary trace trailer
// when trace is non-zero. All entries must share a direction. The entries
// are encoded in place after the frame header, whose length prefix is
// filled in last; on error dst is returned unextended.
func AppendBatch(dst []byte, entries []BatchEntry, trace uint64, sendNano int64) ([]byte, error) {
	if len(entries) == 0 || len(entries) > MaxBatchOps {
		return dst, fmt.Errorf("%w: %d entries", ErrBadBatch, len(entries))
	}
	kind := OpBatch
	request := entries[0].Kind.IsRequest()
	if !request {
		kind = StatusBatch
	}
	start := len(dst)
	// A batch kind with no data always encodes.
	out, _ := Append(dst, Frame{Kind: kind, Arg: int64(len(entries)), Trace: trace, SendNano: sendNano})
	header := len(out) - start
	var err error
	for _, e := range entries {
		if !batchable(e.Kind, request) {
			return dst, fmt.Errorf("%w: mixed directions (%v in a %v frame)", ErrBadBatch, e.Kind, kind)
		}
		if out, err = AppendBatchEntry(out, e); err != nil {
			return dst, err
		}
	}
	body := len(out) - start - lenSize
	if body > DefaultMaxFrame {
		return dst, fmt.Errorf("%w: %d byte payload", ErrFrameTooBig, len(out)-start-header)
	}
	binary.BigEndian.PutUint32(out[start:], uint32(body))
	return out, nil
}

// DecodeBatch validates and unpacks a decoded OpBatch/StatusBatch frame
// into its entries. The entry count must match the frame's Arg exactly.
// Entry Data aliases the frame's Data.
func DecodeBatch(f Frame) ([]BatchEntry, error) {
	return AppendBatchEntries(nil, f)
}

// AppendBatchEntries is DecodeBatch appending the entries to dst, so a
// reader that decodes batch after batch reuses one slice. On error dst is
// returned unextended.
func AppendBatchEntries(dst []BatchEntry, f Frame) ([]BatchEntry, error) {
	request := f.Kind == OpBatch
	if !request && f.Kind != StatusBatch {
		return dst, fmt.Errorf("%w: frame kind %v is not a batch", ErrBadBatch, f.Kind)
	}
	n := f.Arg
	if n <= 0 || n > MaxBatchOps {
		return dst, fmt.Errorf("%w: entry count %d", ErrBadBatch, n)
	}
	// Every entry takes at least its header, so the data bounds the room
	// a declared count can claim.
	start := len(dst)
	entries := slices.Grow(dst, min(int(n), len(f.Data)/entryHeaderSize))
	data := f.Data
	for len(data) > 0 {
		e, rest, err := NextBatchEntry(data, request)
		if err != nil {
			return dst, err
		}
		entries = append(entries, e)
		if int64(len(entries)-start) > n {
			return dst, fmt.Errorf("%w: more entries than the declared %d", ErrBadBatch, n)
		}
		data = rest
	}
	if got := int64(len(entries) - start); got != n {
		return dst, fmt.Errorf("%w: %d entries declared, %d decoded", ErrBadBatch, n, got)
	}
	return entries, nil
}
