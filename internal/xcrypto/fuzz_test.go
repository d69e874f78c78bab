package xcrypto

import (
	"bytes"
	"crypto"
	"crypto/ed25519"
	"math/big"
	"testing"
)

// fuzzKey returns a fixed signing key, so that seeds and the corpus stay
// meaningful between runs.
func fuzzKey(b byte) *SigningKey {
	return &SigningKey{priv: ed25519.NewKeyFromSeed(bytes.Repeat([]byte{b}, ed25519.SeedSize))}
}

// fuzzSign is the honest signature oracle: salt, then the RFC 8032
// Ed25519ph signature over SHA-512(salt‖head‖tail), computed straight from
// crypto/ed25519.
func fuzzSign(t testing.TB, k *SigningKey, salt, head, tail []byte) []byte {
	t.Helper()
	digest := saltedDigest(salt, head, tail)
	ph, err := k.priv.Sign(nil, digest[:], &ed25519.Options{Hash: crypto.SHA512})
	if err != nil {
		t.Fatal(err)
	}
	return append(append(make([]byte, 0, SignatureSize), salt...), ph...)
}

// plusL respells sig's scalar S as S+L, the group order added once: the
// same point equation, a second encoding that strict verification refuses.
func plusL(sig []byte) []byte {
	l, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	le := sig[saltSize+32:]
	be := make([]byte, len(le))
	for i := range le {
		be[len(le)-1-i] = le[i]
	}
	sum := new(big.Int).Add(new(big.Int).SetBytes(be), l).FillBytes(make([]byte, 32))
	out := append([]byte(nil), sig[:saltSize+32]...)
	for i := len(sum) - 1; i >= 0; i-- {
		out = append(out, sum[i])
	}
	return out
}

// FuzzVerifyParts holds VerifyParts to the honest-signature oracle: the
// verdict is true exactly when sig is the salt it carries followed by the
// RFC 8032 signature of the fixed key over salt‖head‖tail. Seeds: honest
// signatures at several head/tail splits and over an empty message, every
// one of the 80 bytes with a bit flipped, the S+L respelling, another
// signature's salt, 79 and 81 bytes, and another key's signature.
func FuzzVerifyParts(f *testing.F) {
	key, other := fuzzKey(0x42), fuzzKey(0x43)
	msg := bytes.Repeat([]byte("signed bytes of one contribution "), 3)
	salt := bytes.Repeat([]byte{0x5A}, saltSize)
	otherSalt := bytes.Repeat([]byte{0xA5}, saltSize)
	honest := fuzzSign(f, key, salt, nil, msg)

	for _, cut := range []int{0, 1, 28, len(msg)} {
		f.Add(msg[:cut], msg[cut:], honest)
	}
	f.Add([]byte(nil), []byte(nil), fuzzSign(f, key, salt, nil, nil))
	for i := range SignatureSize {
		flipped := append([]byte(nil), honest...)
		flipped[i] ^= 1 << (i % 8)
		f.Add([]byte(nil), msg, flipped)
	}
	f.Add([]byte(nil), msg, plusL(honest))
	f.Add([]byte(nil), msg, append(append([]byte(nil), otherSalt...), honest[saltSize:]...))
	f.Add([]byte(nil), msg, honest[:SignatureSize-1])
	f.Add([]byte(nil), msg, append(append([]byte(nil), honest...), 0))
	f.Add([]byte(nil), msg, fuzzSign(f, other, salt, nil, msg))

	pub, bound := key.Public(), key.SelfVerifyKey()
	f.Fuzz(func(t *testing.T, head, tail, sig []byte) {
		want := len(sig) == SignatureSize &&
			bytes.Equal(sig, fuzzSign(t, key, sig[:saltSize], head, tail))
		if got := pub.VerifyParts(head, tail, sig); got != want {
			t.Fatalf("public VerifyParts = %v, honest = %v\nhead %x\ntail %x\nsig  %x", got, want, head, tail, sig)
		}
		if got := bound.VerifyParts(head, tail, sig); got != want {
			t.Fatalf("bound VerifyParts = %v, public = %v\nhead %x\ntail %x\nsig  %x", got, want, head, tail, sig)
		}
	})
}

// FuzzVerifySessionMAC holds the keyed check to the one-shot one:
// MACState.VerifyKeyed over head‖tail must give VerifySessionMAC's verdict
// over the joined message, under a key the fuzzer picks, for any MAC field.
// When flip is zero the field is a genuine MAC of the message, which both
// must accept; otherwise it is that MAC XORed with flip, cut or padded to
// flip's length. Seeds: genuine MACs at several splits and over an empty
// message, a flipped bit in the nonce and in the tag, and fields one byte
// short and one byte long.
func FuzzVerifySessionMAC(f *testing.F) {
	msg := bytes.Repeat([]byte("ticketed bytes of one contribution "), 3)
	for _, cut := range []int{0, 1, 16, len(msg)} {
		f.Add(byte(1), msg[:cut], msg[cut:], []byte(nil))
	}
	f.Add(byte(2), []byte(nil), []byte(nil), []byte(nil))
	for _, i := range []int{0, MACNonceSize - 1, MACNonceSize, MACSize - 1} {
		flip := make([]byte, MACSize)
		flip[i] = 0x80
		f.Add(byte(3), []byte(nil), msg, flip)
	}
	f.Add(byte(4), []byte(nil), msg, make([]byte, MACSize-1))
	f.Add(byte(4), []byte(nil), msg, make([]byte, MACSize+1))

	var m MACState
	f.Fuzz(func(t *testing.T, keyByte byte, head, tail, flip []byte) {
		key := SessionKey{keyByte}
		joined := append(append([]byte(nil), head...), tail...)
		genuine := SessionMAC(&key, joined)
		mac := genuine[:]
		if len(flip) > 0 {
			mac = make([]byte, len(flip))
			copy(mac, genuine[:])
			for i := range mac {
				mac[i] ^= flip[i]
			}
		}
		want := VerifySessionMAC(&key, joined, mac)
		m.SetKey(&key)
		if got := m.VerifyKeyed(head, tail, mac); got != want {
			t.Fatalf("VerifyKeyed = %v, one-shot = %v\nhead %x\ntail %x\nmac  %x", got, want, head, tail, mac)
		}
		if isGenuine := bytes.Equal(mac, genuine[:]); want != isGenuine {
			t.Fatalf("one-shot = %v for a field that is genuine: %v\nmac %x", want, isGenuine, mac)
		}
	})
}
