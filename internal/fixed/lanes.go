package fixed

import (
	"encoding/binary"
	"fmt"
)

// Wide-lane accumulation: the batch ingest path sums hundreds of vectors
// into a shard accumulator per frame, so the inner loops here are written
// for the compiler rather than the reader — lengths hoisted, slices
// re-sliced to full-capacity windows so bounds checks vanish, bodies
// unrolled four lanes wide. Every function is bit-exact with the scalar
// loop it replaces; the property tests in lanes_test.go hold them to that.

// addLanes adds src into dst four lanes at a time. Callers have already
// checked the lengths match.
func addLanes(dst, src Vector) {
	n := len(dst)
	if len(src) < n {
		return // unreachable after the callers' checks; keeps BCE honest
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := src[i : i+4 : i+4]
		d[0] += s[0]
		d[1] += s[1]
		d[2] += s[2]
		d[3] += s[3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// AccumulateInto adds raw ring lanes (uint64 bit patterns, one per element)
// into dst. It is the bridge for callers that hold decoded wire lanes and
// want to skip the []uint64 → Vector conversion copy.
func AccumulateInto(dst Vector, lanes []uint64) {
	n := len(dst)
	if len(lanes) != n {
		panic(fmt.Sprintf("fixed: lane count mismatch %d != %d", len(lanes), n))
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		d := dst[i : i+4 : i+4]
		s := lanes[i : i+4 : i+4]
		d[0] += Ring(s[0])
		d[1] += Ring(s[1])
		d[2] += Ring(s[2])
		d[3] += Ring(s[3])
	}
	for ; i < n; i++ {
		dst[i] += Ring(lanes[i])
	}
}

// AccumulateWireInto adds a vector straight from its wire encoding — the
// contiguous big-endian uint64 lane bytes inside a transport frame — into
// dst, with no intermediate decode buffer at all. be must be exactly
// 8·len(dst) bytes. This is the zero-copy terminal of the batch ingest
// path: the frame's lane bytes flow into the shard accumulator untouched.
func AccumulateWireInto(dst Vector, be []byte) {
	n := len(dst)
	if len(be) != n*8 {
		panic(fmt.Sprintf("fixed: wire lane bytes %d != %d", len(be), n*8))
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		b := be[i*8 : i*8+32 : i*8+32]
		d := dst[i : i+4 : i+4]
		d[0] += Ring(binary.BigEndian.Uint64(b[0:8]))
		d[1] += Ring(binary.BigEndian.Uint64(b[8:16]))
		d[2] += Ring(binary.BigEndian.Uint64(b[16:24]))
		d[3] += Ring(binary.BigEndian.Uint64(b[24:32]))
	}
	for ; i < n; i++ {
		dst[i] += Ring(binary.BigEndian.Uint64(be[i*8 : i*8+8]))
	}
}

// AppendWire appends v's wire lane encoding (big-endian uint64 per element)
// to dst and returns the extended slice — the serialization half of
// AccumulateWireInto, shared by Digest and the codec.
func (v Vector) AppendWire(dst []byte) []byte {
	for _, r := range v {
		dst = binary.BigEndian.AppendUint64(dst, uint64(r))
	}
	return dst
}
