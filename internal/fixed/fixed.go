// Package fixed implements the fixed-point ring encoding used for
// blinding-compatible model aggregation.
//
// Federated contributions in the Glimmer design are aggregated by exact
// modular addition: each client adds a secret mask to its value and the
// service recovers the true sum because the masks cancel (Figure 1c of the
// paper). Floating-point addition is neither associative nor exact, so model
// weights — real numbers in [0, 1] — are encoded as fixed-point integers in
// the ring Z_2^64, where addition wraps and masks cancel bit-exactly.
//
// The encoding is Q44.20: twenty fractional bits, leaving 44 integer bits of
// headroom so that sums over millions of clients cannot overflow the true
// (unwrapped) value. One Ring unit is 2^-20 ≈ 9.5e-7, far below the model's
// meaningful precision.
package fixed

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// FracBits is the number of fractional bits in the encoding.
const FracBits = 20

// Scale is the multiplier applied to a real value during encoding.
const Scale = 1 << FracBits

// Ring is an element of Z_2^64 carrying a Q44.20 fixed-point value.
// Addition and subtraction wrap, which is exactly the behaviour blinding
// needs: x + mask - mask == x regardless of intermediate wraparound.
type Ring uint64

// FromFloat encodes a non-negative real value. Values are rounded to the
// nearest representable unit. FromFloat does not range-check: encoding an
// out-of-range value (like the paper's adversarial 538) is intentionally
// possible, because detecting it is the Glimmer's job, not the encoder's.
func FromFloat(v float64) Ring {
	if v < 0 {
		// Negative weights do not occur in the paper's [0,1] model, but the
		// ring represents them as two's complement so that aggregation
		// arithmetic stays exact if a workload produces them.
		return -FromFloat(-v)
	}
	return Ring(v*Scale + 0.5)
}

// Float decodes the ring element back to a real value, interpreting the
// element as a two's-complement signed quantity.
func (r Ring) Float() float64 {
	return float64(int64(r)) / Scale
}

// InUnitRange reports whether the element decodes to a value in [0, 1].
// This is the paper's canonical validity predicate for model weights.
func (r Ring) InUnitRange() bool {
	v := int64(r)
	return v >= 0 && v <= Scale
}

// String formats the element as its decoded real value.
func (r Ring) String() string { return fmt.Sprintf("%.6f", r.Float()) }

// Vector is a slice of ring elements: one federated model contribution.
type Vector []Ring

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// FromFloats encodes a real-valued vector.
func FromFloats(vs []float64) Vector {
	out := make(Vector, len(vs))
	for i, v := range vs {
		out[i] = FromFloat(v)
	}
	return out
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// digestScratch pools the contiguous serialization buffer Digest hashes, so
// per-round digests (sim traces, shutdown reports) reuse one buffer per P
// instead of re-growing it every call.
var digestScratch = sync.Pool{New: func() any { return new([]byte) }}

// Digest returns a stable 16-hex-digit digest of v (FNV-64a over the
// big-endian ring bits) — the aggregate fingerprint shared by the fleet
// simulator's traces and glimmerd's shutdown report, so the two can be
// compared line for line. The whole vector is serialized into one reused
// contiguous buffer and hashed with a single Write: the byte stream — and
// therefore the digest — is identical to the original per-element loop,
// which fed the hasher through an interface call per element.
func (v Vector) Digest() string {
	bp := digestScratch.Get().(*[]byte)
	buf := v.AppendWire((*bp)[:0])
	h := fnv.New64a()
	_, _ = h.Write(buf)
	*bp = buf
	digestScratch.Put(bp)
	return fmt.Sprintf("%016x", h.Sum64())
}

// AddInPlace adds other into v element-wise. It panics on length mismatch:
// mixing contributions of different dimensionality is a programming error
// upstream, not a recoverable condition.
func (v Vector) AddInPlace(other Vector) {
	if len(v) != len(other) {
		panic(fmt.Sprintf("fixed: vector length mismatch %d != %d", len(v), len(other)))
	}
	addLanes(v, other)
}

// SubInPlace subtracts other from v element-wise.
func (v Vector) SubInPlace(other Vector) {
	if len(v) != len(other) {
		panic(fmt.Sprintf("fixed: vector length mismatch %d != %d", len(v), len(other)))
	}
	for i := range v {
		v[i] -= other[i]
	}
}

// DivScalarInPlace divides every element by n using truncating signed
// division, the averaging step of FedAvg. It panics on n == 0: dividing an
// aggregate by a zero cohort is a programming error upstream.
func (v Vector) DivScalarInPlace(n int64) {
	if n == 0 {
		panic("fixed: division by zero cohort size")
	}
	for i := range v {
		v[i] = Ring(int64(v[i]) / n)
	}
}

// Sum returns the element-wise sum of vectors, all of which must share the
// same length. Sum of no vectors is an error because the dimension is
// unknown.
func Sum(vectors ...Vector) (Vector, error) {
	if len(vectors) == 0 {
		return nil, fmt.Errorf("fixed: sum of zero vectors has unknown dimension")
	}
	out := vectors[0].Clone()
	for _, v := range vectors[1:] {
		if len(v) != len(out) {
			return nil, fmt.Errorf("fixed: vector length mismatch %d != %d", len(v), len(out))
		}
		out.AddInPlace(v)
	}
	return out, nil
}

// Mean returns the element-wise mean of vectors, the FedAvg aggregate.
func Mean(vectors ...Vector) (Vector, error) {
	sum, err := Sum(vectors...)
	if err != nil {
		return nil, err
	}
	sum.DivScalarInPlace(int64(len(vectors)))
	return sum, nil
}
