package xcrypto

import (
	"encoding/binary"
	"math/bits"
)

// Integers mod L, the order of Ed25519's base point: what a key holder
// needs to recompute a signature's S = r + k·s without the curve. Every
// function here runs the same instructions whatever its operands are — no
// branch, table index or early exit depends on a value, and a conditional
// subtraction is a masked select — because the operands include the secret
// scalar and the secret nonce.

// scalar is a 256-bit integer as four little-endian 64-bit limbs; what
// reduceWide and mulAdd return is in [0, L).
type scalar [4]uint64

// scalarL is L = 2^252 + 27742317777372353535851937790883648493.
var scalarL = [4]uint64{0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000}

// barrettMu is μ = ⌊2^512 / L⌋, the precomputed quotient of Barrett
// reduction with base 2^64 and k = 4 limbs (HAC 14.42).
var barrettMu = [5]uint64{0xed9ce5a30a2c131b, 0x2106215d086329a7, 0xffffffffffffffeb, 0xffffffffffffffff, 0xf}

// mulLimbs sets p to a·b, little-endian limbs; len(p) must be at least
// len(a)+len(b). Limbs of p beyond the product are zeroed.
func mulLimbs(p, a, b []uint64) {
	clear(p)
	for i, ai := range a {
		var carry uint64
		for j, bj := range b {
			// ai·bj + p[i+j] + carry < 2^128: the high word cannot carry out.
			hi, lo := bits.Mul64(ai, bj)
			var c uint64
			lo, c = bits.Add64(lo, p[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			p[i+j], carry = lo, hi
		}
		p[i+len(b)] = carry
	}
}

// reduceWide returns x mod L for a 512-bit x in little-endian limbs: HAC
// 14.42 with b = 2^64, k = 4. HAC bounds the estimate q3 = ⌊⌊x/b³⌋·μ / b⁵⌋
// at two short of ⌊x/L⌋; for this L it is at most one short. Write
// x = q1·b³ + x0 and μ = (2^512 − ρ)/L: then x/L − q1·μ/b⁵ =
// x0/L + (q1/b⁵)·(ρ/L) < 2^-59 + ρ/L, and ρ/L ≈ 0.225. So x − q3·L lies in
// [0, 2L) and one conditional subtraction finishes the job.
func reduceWide(x *[8]uint64) scalar {
	var q2 [10]uint64
	mulLimbs(q2[:], x[3:], barrettMu[:])
	var r2 [9]uint64
	mulLimbs(r2[:], q2[5:], scalarL[:])
	// r = x − q3·L mod 2^256: the difference is below 2L < 2^256, so the
	// low four limbs of each side determine it.
	var r scalar
	var borrow uint64
	for i := range r {
		r[i], borrow = bits.Sub64(x[i], r2[i], borrow)
	}
	r.subLIfGE()
	return r
}

// subLIfGE replaces s with s − L when s ≥ L, for s < 2^256, by computing
// the difference and keeping it under a mask of the final borrow.
func (s *scalar) subLIfGE() {
	var d scalar
	var borrow uint64
	for i := range d {
		d[i], borrow = bits.Sub64(s[i], scalarL[i], borrow)
	}
	keep := borrow - 1 // all ones when s ≥ L, zero when s < L
	for i := range s {
		s[i] = d[i]&keep | s[i]&^keep
	}
}

// scalarFromWideBytes reduces a 64-byte little-endian integer — a SHA-512
// output, as RFC 8032 reads it — mod L.
func scalarFromWideBytes(b *[64]byte) scalar {
	var x [8]uint64
	for i := range x {
		x[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return reduceWide(&x)
}

// mulAdd returns a·b + c mod L. The inputs need not be reduced: any values
// below 2^256 keep a·b + c below 2^512.
func mulAdd(a, b, c *scalar) scalar {
	var x [8]uint64
	mulLimbs(x[:], a[:], b[:])
	var carry uint64
	for i := range c {
		x[i], carry = bits.Add64(x[i], c[i], carry)
	}
	for i := len(c); i < len(x); i++ {
		x[i], carry = bits.Add64(x[i], 0, carry)
	}
	return reduceWide(&x)
}

// bytes writes s as 32 little-endian bytes, RFC 8032's encoding of S.
func (s *scalar) bytes(out *[32]byte) {
	for i, limb := range s {
		binary.LittleEndian.PutUint64(out[8*i:], limb)
	}
}
