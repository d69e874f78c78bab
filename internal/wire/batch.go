package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Batch framing: transports that carry many contributions per call (the
// gaas submit path, bulk ingest clients) wrap them in one length-prefixed
// frame — a u32 item count followed by that many byte fields — so a single
// network round trip can feed a whole verifier pool.

// MaxBatchItems caps one batch frame. A frame is decoded into memory
// before processing, so the cap bounds a hostile frame's allocation the
// same way MaxFieldLen bounds one field.
const MaxBatchItems = 1 << 16

// ErrBatchTooLarge is returned when a batch frame declares more items than
// MaxBatchItems.
var ErrBatchTooLarge = errors.New("wire: batch exceeds item limit")

// AppendBatch appends the batch framing of items to dst and returns the
// extended slice — the single definition of the batch byte format, which
// transports encode straight into a pooled frame buffer
// (gaas.Client.SubmitBatch). Size dst with EncodedBatchSize to avoid
// growth.
func AppendBatch(dst []byte, items [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(items)))
	for _, item := range items {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(item)))
		dst = append(dst, item...)
	}
	return dst
}

// EncodedBatchSize returns len(AppendBatch(nil, items)) without encoding:
// encoders that frame a batch into a preallocated buffer size it with
// this.
func EncodedBatchSize(items [][]byte) int {
	n := 4
	for _, item := range items {
		n += 4 + len(item)
	}
	return n
}

// DecodeBatchInto decodes a batch frame without copying: every returned
// item is a view into data, and the item headers are appended into
// scratch[:0] so a pooled slice can be reused across frames. The views are
// valid only while data is — callers that fan items out to workers must
// keep the frame buffer alive (and unrecycled) until processing settles.
func DecodeBatchInto(data []byte, scratch [][]byte) ([][]byte, error) {
	return decodeBatch(data, scratch, true)
}

func decodeBatch(data []byte, scratch [][]byte, view bool) ([][]byte, error) {
	var r Reader
	r.Reset(data)
	n := r.Uint32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > MaxBatchItems {
		return nil, fmt.Errorf("%w: %d items", ErrBatchTooLarge, n)
	}
	// Each item costs at least a 4-byte length prefix, so a frame too
	// short to hold n items is refused before the count can amplify into
	// slice-header allocations (a 4-byte hostile frame must not buy a
	// MaxBatchItems-capacity slice).
	if int(n) > r.Remaining()/4 {
		return nil, fmt.Errorf("wire: batch: %w", ErrTruncated)
	}
	items := scratch[:0]
	if cap(items) < int(n) {
		items = make([][]byte, 0, n)
	}
	for i := uint32(0); i < n; i++ {
		if view {
			items = append(items, r.BytesView())
		} else {
			items = append(items, r.Bytes())
		}
	}
	if err := r.Done(); err != nil {
		// Drop any views already appended into the caller's scratch: a
		// failed decode must not leave stale references to the frame
		// buffer behind (the scratch array is retained and reused).
		clear(items)
		return nil, fmt.Errorf("wire: batch: %w", err)
	}
	return items, nil
}
