package xcrypto

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"math/big"
	"math/rand/v2"
	"testing"
)

// bigL is the group order, from its decimal definition rather than the
// limbs under test.
var bigL, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// leBig reads a little-endian byte string as an integer.
func leBig(b []byte) *big.Int {
	be := make([]byte, len(b))
	for i := range b {
		be[len(b)-1-i] = b[i]
	}
	return new(big.Int).SetBytes(be)
}

// bigLE writes x, which must fit, as n little-endian bytes.
func bigLE(x *big.Int, n int) []byte {
	be := x.FillBytes(make([]byte, n))
	le := make([]byte, n)
	for i := range be {
		le[n-1-i] = be[i]
	}
	return le
}

// randBytes returns n bytes drawn from rng.
func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
	return b
}

func scalarBig(s scalar) *big.Int {
	var enc [32]byte
	s.bytes(&enc)
	return leBig(enc[:])
}

// checkReduce holds scalarFromWideBytes to x mod L.
func checkReduce(t *testing.T, wide *[64]byte) {
	t.Helper()
	if got, want := scalarBig(scalarFromWideBytes(wide)), new(big.Int).Mod(leBig(wide[:]), bigL); got.Cmp(want) != 0 {
		t.Fatalf("reduce %x = %v, want %v", wide[:], got, want)
	}
}

// checkMulAdd holds mulAdd to a·b + c mod L for 32-byte little-endian
// operands, reduced or not.
func checkMulAdd(t *testing.T, a, b, c *[32]byte) {
	t.Helper()
	limbs := func(b *[32]byte) (s scalar) {
		for i := range s {
			s[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		return s
	}
	sa, sb, sc := limbs(a), limbs(b), limbs(c)
	want := new(big.Int).Mul(leBig(a[:]), leBig(b[:]))
	want.Add(want, leBig(c[:])).Mod(want, bigL)
	if got := scalarBig(mulAdd(&sa, &sb, &sc)); got.Cmp(want) != 0 {
		t.Fatalf("mulAdd(%x, %x, %x) = %v, want %v", a[:], b[:], c[:], got, want)
	}
}

// TestScalarReduceMatchesBig holds the limb arithmetic to math/big: the
// Barrett reduction of 512-bit inputs at the edges — 0, L−1, L, 2L,
// 2^512−1 — and at 10⁵ random values, and mulAdd over the same edges and
// random operands up to 2^256−1.
func TestScalarReduceMatchesBig(t *testing.T) {
	one := big.NewInt(1)
	max512 := new(big.Int).Sub(new(big.Int).Lsh(one, 512), one)
	max256 := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	edges := []*big.Int{
		new(big.Int),
		one,
		new(big.Int).Sub(bigL, one),
		bigL,
		new(big.Int).Add(bigL, one),
		new(big.Int).Lsh(bigL, 1),
		new(big.Int).Mul(bigL, bigL),
		max256,
		max512,
		new(big.Int).Sub(max512, new(big.Int).Mod(max512, bigL)), // the largest multiple of L
	}
	for _, x := range edges {
		checkReduce(t, (*[64]byte)(bigLE(x, 64)))
	}
	for _, a := range edges {
		if a.Cmp(max256) > 0 {
			continue
		}
		for _, b := range edges {
			if b.Cmp(max256) > 0 {
				continue
			}
			ea, eb := bigLE(a, 32), bigLE(b, 32)
			checkMulAdd(t, (*[32]byte)(ea), (*[32]byte)(eb), (*[32]byte)(bigLE(max256, 32)))
			checkMulAdd(t, (*[32]byte)(ea), (*[32]byte)(eb), new([32]byte))
		}
	}

	rng := rand.New(rand.NewChaCha8([32]byte{'s', 'c', 'a', 'l', 'a', 'r'}))
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	// Short values too: zeroing a random number of top bytes exercises small
	// quotients and every limb boundary.
	fill := func(dst []byte) {
		copy(dst, randBytes(rng, len(dst)))
		clear(dst[rng.IntN(len(dst)+1):])
	}
	var wide [64]byte
	var a, b, c [32]byte
	for range n {
		fill(wide[:])
		checkReduce(t, &wide)
		fill(a[:])
		fill(b[:])
		fill(c[:])
		checkMulAdd(t, &a, &b, &c)
	}
}

// FuzzScalarReduce is TestScalarReduceMatchesBig's oracle under the fuzzer:
// wide is read as a 512-bit value, a, b and c as 256-bit operands, each
// zero-padded or cut to its width.
func FuzzScalarReduce(f *testing.F) {
	f.Fuzz(func(t *testing.T, wide, a, b, c []byte) {
		var w [64]byte
		var x, y, z [32]byte
		copy(w[:], wide)
		copy(x[:], a)
		copy(y[:], b)
		copy(z[:], c)
		checkReduce(t, &w)
		checkMulAdd(t, &x, &y, &z)
	})
}

// TestBoundCheckMatchesEd25519: over random keys, salts, messages and
// head/tail splits, the S a bound key recomputes is byte for byte the S of
// crypto/ed25519's signature, and the bound key accepts the signature.
func TestBoundCheckMatchesEd25519(t *testing.T) {
	rng := rand.New(rand.NewChaCha8([32]byte{'b', 'o', 'u', 'n', 'd'}))
	random := func(n int) []byte { return randBytes(rng, n) }
	for range 300 {
		key := &SigningKey{priv: ed25519.NewKeyFromSeed(random(ed25519.SeedSize))}
		bound := key.SelfVerifyKey()
		msg := random(rng.IntN(1024))
		salt := random(saltSize)
		cut := rng.IntN(len(msg) + 1)
		sig := fuzzSign(t, key, salt, msg[:cut], msg[cut:])
		digest := saltedDigest(salt, msg[:cut], msg[cut:])
		if s := bound.bound.signatureS(bound.pub, &digest, sig[saltSize:saltSize+32]); !bytes.Equal(s[:], sig[saltSize+32:]) {
			t.Fatalf("recomputed S %x, crypto/ed25519 signed %x", s, sig[saltSize+32:])
		}
		if !bound.VerifyParts(msg[:cut], msg[cut:], sig) {
			t.Fatalf("bound key refused an honest signature split at %d of %d", cut, len(msg))
		}
	}
}

// TestBoundAcceptsOnlyKeyComputable pins the one place the bound key's
// acceptance set differs from the curve's: a signature whose R is any point
// but the nonce's, with the S = r + k·s that only the holder of s can
// compute, is accepted by the bound key and refused by Public. The same
// forgery respelled as S+L, or computed with another nonce prefix, is
// refused by both.
func TestBoundAcceptsOnlyKeyComputable(t *testing.T) {
	rng := rand.New(rand.NewChaCha8([32]byte{'f', 'o', 'r', 'g', 'e'}))
	random := func(n int) []byte { return randBytes(rng, n) }
	key := fuzzKey(0x42)
	pub, bound := key.Public(), key.SelfVerifyKey()
	msg := []byte("signed bytes of one contribution")
	for range 50 {
		salt := random(saltSize)
		digest := saltedDigest(salt, nil, msg)
		honest := fuzzSign(t, key, salt, nil, msg)
		// R′: a genuine curve point that is not the nonce's — another
		// key's public value.
		rPrime := ed25519.NewKeyFromSeed(random(ed25519.SeedSize)).Public().(ed25519.PublicKey)
		if bytes.Equal(rPrime, honest[saltSize:saltSize+32]) {
			t.Fatal("drew the nonce's own point")
		}
		forge := func(e *expandedKey) []byte {
			s := e.signatureS(pub.pub, &digest, rPrime)
			return append(append(append([]byte(nil), salt...), rPrime...), s[:]...)
		}
		otherPrefix := *bound.bound
		copy(otherPrefix.prefix[:], random(32))

		for _, c := range []struct {
			name             string
			sig              []byte
			wantBound, wantP bool
		}{
			{"honest", honest, true, true},
			{"key-computable R′", forge(bound.bound), true, false},
			{"R′ with S+L", plusL(forge(bound.bound)), false, false},
			{"R′ under another prefix", forge(&otherPrefix), false, false},
		} {
			if got := bound.VerifyParts(nil, msg, c.sig); got != c.wantBound {
				t.Errorf("%s: bound VerifyParts = %v, want %v", c.name, got, c.wantBound)
			}
			if got := pub.VerifyParts(nil, msg, c.sig); got != c.wantP {
				t.Errorf("%s: public VerifyParts = %v, want %v", c.name, got, c.wantP)
			}
		}
	}
}
