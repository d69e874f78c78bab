package durable

import (
	"encoding/binary"
	"hash/crc32"
)

// WAL file layout: a 16-byte magic header, then CRC-framed records —
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// A crash can tear the last frame (partial header, partial payload, or a
// payload that fails its CRC); replay detects the tear, reports the byte
// offset of the last intact frame, and the store truncates there before
// appending again. Anything after a tear is unrecoverable by
// construction — a torn record never reached the application state it
// describes, because records are appended before their effect is
// acknowledged to no one (journaling is synchronous with the mutation).
var walMagic = []byte("glimmers/wal/v1\x00")

const (
	frameHeaderLen = 8
	// maxFramePayload bounds one record; larger lengths are treated as
	// corruption, not allocation requests.
	maxFramePayload = 1 << 26
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walkFrames iterates the intact frames of a WAL image (magic header
// included), calling fn for each payload. It returns the byte offset
// just past the last intact frame and whether the file ended cleanly;
// torn == true means bytes at [good:] are a partial or corrupt tail.
// fn returning an error stops the walk with the same semantics as a
// tear: the offending frame is not counted as good.
func walkFrames(data []byte, fn func(payload []byte) error) (good int64, torn bool) {
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != string(walMagic) {
		return 0, len(data) > 0
	}
	off := len(walMagic)
	for {
		if off == len(data) {
			return int64(off), false
		}
		if len(data)-off < frameHeaderLen {
			return int64(off), true
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > maxFramePayload || len(data)-off-frameHeaderLen < n {
			return int64(off), true
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			return int64(off), true
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return int64(off), true
			}
		}
		off += frameHeaderLen + n
	}
}
