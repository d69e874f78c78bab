// Package wire provides the deterministic binary message encoding shared by
// every protocol in the system: Glimmer↔service provisioning, attested
// handshakes, Glimmer-as-a-service framing, and the public contribution
// format the runtime auditor checks.
//
// The format is deliberately trivial — length-prefixed fields appended in a
// fixed order — because §4.1 of the paper requires the message format
// between a Glimmer and its service to be public and auditable: an auditor
// must be able to decide, from bytes alone, that a message is well formed
// and carries no more information than the format allows.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Limits guard against malformed length prefixes when decoding untrusted
// bytes.
const (
	// MaxFieldLen caps one field (64 MiB).
	MaxFieldLen = 64 << 20
)

// ErrTruncated is returned when a reader runs past the end of the message.
var ErrTruncated = errors.New("wire: truncated message")

// ErrTrailing is returned by Done when bytes remain after the last field —
// a message smuggling extra content, which the auditor treats as malformed.
var ErrTrailing = errors.New("wire: trailing bytes after message")

// Writer accumulates an encoded message.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Reset empties the writer while keeping its buffer capacity, so one
// writer can encode a stream of messages without re-allocating. Hot paths
// (gaas framing, bulk encoders) pool Writers and Reset between uses.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes appends a length-prefixed byte field.
func (w *Writer) Bytes(b []byte) *Writer {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(b)))
	w.buf = append(w.buf, lenBuf[:]...)
	w.buf = append(w.buf, b...)
	return w
}

// String appends a length-prefixed string field.
func (w *Writer) String(s string) *Writer { return w.Bytes([]byte(s)) }

// BytesPrefix appends only the 4-byte length header of a byte field whose
// n content bytes the caller then appends piecewise with Raw. The result
// is byte-identical to Bytes on the concatenated content, without the
// caller having to stage that content contiguously first — bulk encoders
// (WAL records full of digests and lanes) skip a copy this way. The
// caller owes exactly n Raw bytes before the next framed field.
func (w *Writer) BytesPrefix(n int) *Writer {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(n))
	w.buf = append(w.buf, lenBuf[:]...)
	return w
}

// Raw appends bytes with no framing: content promised by an earlier
// BytesPrefix.
func (w *Writer) Raw(b []byte) *Writer {
	w.buf = append(w.buf, b...)
	return w
}

// Uint64 appends a fixed-width 64-bit field.
func (w *Writer) Uint64(v uint64) *Writer {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
	return w
}

// Uint32 appends a fixed-width 32-bit field.
func (w *Writer) Uint32(v uint32) *Writer {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	w.buf = append(w.buf, b[:]...)
	return w
}

// Byte appends a single byte.
func (w *Writer) Byte(v byte) *Writer {
	w.buf = append(w.buf, v)
	return w
}

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) *Writer {
	if v {
		return w.Byte(1)
	}
	return w.Byte(0)
}

// Uint64s appends a counted sequence of 64-bit values, growing the buffer
// once for the whole field rather than by doubling through the elements.
func (w *Writer) Uint64s(vs []uint64) *Writer {
	w.buf = slices.Grow(w.buf, 4+8*len(vs))
	w.Uint32(uint32(len(vs)))
	for _, v := range vs {
		w.buf = binary.BigEndian.AppendUint64(w.buf, v)
	}
	return w
}

// Finish returns the encoded message.
func (w *Writer) Finish() []byte { return w.buf }

// Reader decodes a message written by Writer. Errors are sticky: after the
// first failure all subsequent reads return zero values and Err reports the
// failure. This lets decoding code read a whole struct and check once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps an encoded message.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Reset re-points the reader at a new message and clears any sticky error.
// Decoders on the ingest hot path keep a Reader value on the stack and
// Reset it per message instead of allocating a fresh one.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.data) {
		r.fail(ErrTruncated)
		return nil
	}
	out := r.data[r.off : r.off+n]
	r.off += n
	return out
}

// fieldLen reads and validates a field's length prefix.
func (r *Reader) fieldLen() int {
	lenBytes := r.take(4)
	if r.err != nil {
		return 0
	}
	n := binary.BigEndian.Uint32(lenBytes)
	if n > MaxFieldLen {
		r.fail(fmt.Errorf("wire: field length %d exceeds limit", n))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte field. The returned slice is a copy.
func (r *Reader) Bytes() []byte {
	n := r.fieldLen()
	if r.err != nil {
		return nil
	}
	raw := r.take(n)
	if r.err != nil {
		return nil
	}
	return append([]byte(nil), raw...)
}

// String reads a length-prefixed string field.
func (r *Reader) String() string { return string(r.Bytes()) }

// BytesView reads a length-prefixed byte field without copying: the
// returned slice aliases the reader's input and is valid only while the
// input buffer is. The zero-allocation ingest path decodes with views and
// copies nothing it does not retain.
func (r *Reader) BytesView() []byte {
	n := r.fieldLen()
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// SkipBytes advances past a length-prefixed byte field without copying it,
// for readers that only need a later field.
func (r *Reader) SkipBytes() {
	n := r.fieldLen()
	if r.err != nil {
		return
	}
	r.take(n)
}

// Uint64 reads a fixed-width 64-bit field.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Uint32 reads a fixed-width 32-bit field.
func (r *Reader) Uint32() uint32 {
	b := r.take(4)
	if r.err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if r.err != nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean; any value other than 0 or 1 is an error
// (a covert channel in a boolean field, which the auditor must reject).
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(errors.New("wire: boolean field with non-canonical value"))
		return false
	}
}

// Uint64s reads a counted sequence of 64-bit values.
func (r *Reader) Uint64s() []uint64 {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if uint64(n)*8 > uint64(len(r.data)-r.off) {
		r.fail(ErrTruncated)
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Uint64sView reads a counted sequence of 64-bit values as a view of its
// raw big-endian lane bytes — 8 bytes per value, contiguous, aliasing the
// reader's input — without decoding anything. The batch ingest path
// accumulates straight from these bytes (fixed.AccumulateWireInto), so a
// vector travels from transport frame to shard accumulator with zero
// intermediate copies. The count is len(view)/8.
func (r *Reader) Uint64sView() []byte {
	n := r.Uint32()
	if r.err != nil {
		return nil
	}
	if uint64(n)*8 > uint64(len(r.data)-r.off) {
		r.fail(ErrTruncated)
		return nil
	}
	return r.take(int(n) * 8)
}

// Done verifies the message was fully consumed and returns any decode error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.data)-r.off)
	}
	return nil
}

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.data) - r.off
}
