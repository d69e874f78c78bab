package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
)

// WAL file layout: a 16-byte magic header, then one CRC frame per record —
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// An image uses the same frames after its own header (see writeImage).
// A crash can tear the last frame (partial header, partial payload, or a
// payload that fails its CRC); replay stops at the tear, and the store
// truncates the file there before appending again.
const walMagic = "glimmers/wal/v1\x00"

const (
	frameHeaderLen = 8
	// maxFramePayload bounds one record; larger lengths are treated as
	// corruption, not allocation requests.
	maxFramePayload = 1 << 26
	// walkBuffer is the read and write buffer of a streamed file.
	walkBuffer = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTorn reports a partial or corrupt frame: a short header or payload, a
// length past maxFramePayload or past the end of the file, or a CRC
// failure.
var errTorn = errors.New("durable: torn frame")

func frameHeader(payload []byte) [frameHeaderLen]byte {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	return hdr
}

// walk streams a file of size bytes from r: its header, read into hdr,
// which must open with magic, then its frames. fn gets each intact
// payload, valid only until it returns. walk returns the offset just past
// the last payload fn accepted, and nil at the end of the file, errTorn at
// a damaged header or a tear, or the first error of fn or r. A frame
// length past the end of the file is a tear, not an allocation.
func walk(r io.Reader, size int64, hdr []byte, magic string, fn func(payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, walkBuffer)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, readErr(err)
	}
	if string(hdr[:len(magic)]) != magic {
		return 0, errTorn
	}
	var fh [frameHeaderLen]byte
	var buf []byte
	for off := int64(len(hdr)); ; {
		if off == size {
			return off, nil
		}
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return off, readErr(err)
		}
		n := int64(binary.BigEndian.Uint32(fh[:4]))
		if n > maxFramePayload || n > size-off-frameHeaderLen {
			return off, errTorn
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		payload := buf[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return off, readErr(err)
		}
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(fh[4:]) {
			return off, errTorn
		}
		if err := fn(payload); err != nil {
			return off, err
		}
		off += frameHeaderLen + n
	}
}

// readErr maps a short read to a tear; any other read error stands.
func readErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errTorn
	}
	return err
}
