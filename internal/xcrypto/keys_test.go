package xcrypto

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"glimmers/internal/race"
)

// TestSignIsSaltedAndFixedSize: the salt is what lets two holders of one
// key endorse the identical message without producing identical bytes, so
// two signatures of one message differ and both verify; and the length is
// part of the scheme, so anything that is not SignatureSize bytes — a DER
// ECDSA blob included — is refused.
func TestSignIsSaltedAndFixedSize(t *testing.T) {
	key, err := NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the identical vector")
	a, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != SignatureSize || len(b) != SignatureSize {
		t.Fatalf("signature lengths %d, %d, want %d", len(a), len(b), SignatureSize)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two signatures of one message are identical")
	}
	if bytes.Equal(a[:saltSize], b[:saltSize]) {
		t.Fatal("two signatures share a salt")
	}
	pub := key.Public()
	if !pub.Verify(msg, a) || !pub.Verify(msg, b) {
		t.Fatal("a salted signature does not verify")
	}
	// The salt is signed over: one signature's salt does not carry the other's.
	if pub.Verify(msg, append(append([]byte(nil), a[:saltSize]...), b[saltSize:]...)) {
		t.Fatal("signature verified under another signature's salt")
	}

	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	der, err := ecdsa.SignASN1(rand.Reader, p256, make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	for name, sig := range map[string][]byte{
		"empty":    nil,
		"79 bytes": a[:SignatureSize-1],
		"81 bytes": append(append([]byte(nil), a...), 0),
		"DER":      der, // 70 to 72 bytes, what a P-256 signature used to be here
	} {
		if pub.Verify(msg, sig) {
			t.Errorf("%s: accepted a %d-byte signature", name, len(sig))
		}
	}
}

// TestSignIsDeterministicGivenSalt pins the property a bound VerifyKey rests
// on: the 64-byte Ed25519ph half of a signature depends only on the key, the
// salt and the message, so the key holder can recompute the nonce a
// signature was made with. Were a toolchain ever to hedge Ed25519 signing,
// every bound verify would quietly refuse honest traffic; this fails first.
func TestSignIsDeterministicGivenSalt(t *testing.T) {
	key, other := fuzzKey(0x42), fuzzKey(0x43)
	msg := []byte("the identical vector")
	salt := bytes.Repeat([]byte{0x5A}, saltSize)
	ph := func(k *SigningKey, salt, head, tail []byte) []byte {
		t.Helper()
		out, err := k.signWithSalt(salt, head, tail)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := ph(key, salt, nil, msg)
	if len(a) != SignatureSize-saltSize {
		t.Fatalf("Ed25519ph half is %d bytes, want %d", len(a), SignatureSize-saltSize)
	}
	for i := range 3 {
		if b := ph(key, salt, nil, msg); !bytes.Equal(a, b) {
			t.Fatalf("re-signing %d: the same (key, salt, message) gave different bytes", i)
		}
	}
	if b := ph(key, salt, msg[:7], msg[7:]); !bytes.Equal(a, b) {
		t.Fatal("the same message in two segments signed differently")
	}
	if !key.Public().Verify(msg, append(append([]byte(nil), salt...), a...)) {
		t.Fatal("salt plus the re-signed half does not verify")
	}
	for name, b := range map[string][]byte{
		"another salt":    ph(key, bytes.Repeat([]byte{0xA5}, saltSize), nil, msg),
		"another message": ph(key, salt, nil, msg[1:]),
		"another key":     ph(other, salt, nil, msg),
	} {
		if bytes.Equal(a, b) {
			t.Errorf("%s: signed to the same bytes", name)
		}
	}
}

// TestBoundVerifyKeyHygiene: a bound key holds the expanded secret and must
// never show it. It marshals and fingerprints exactly as the public key
// does, formats as its fingerprint under every verb, and no formatting
// carries any 16-byte window of the seed, the private key, the secret
// scalar or the nonce prefix, raw or hex. The keys a stranger can hold —
// Public and ParseVerifyKey — stay unbound.
func TestBoundVerifyKeyHygiene(t *testing.T) {
	key, err := NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	pub, bound := key.Public(), key.SelfVerifyKey()
	pubDER, err := pub.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	boundDER, err := bound.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pubDER, boundDER) {
		t.Error("bound and public keys marshal differently")
	}
	if pub.Fingerprint() != bound.Fingerprint() {
		t.Error("bound and public keys fingerprint differently")
	}
	parsed, err := ParseVerifyKey(boundDER)
	if err != nil {
		t.Fatal(err)
	}
	if pub.bound != nil || parsed.bound != nil {
		t.Error("Public or ParseVerifyKey returned a key bound to its signer")
	}

	var scalarBytes [32]byte
	bound.bound.s.bytes(&scalarBytes)
	windows := func() []string {
		var out []string
		for _, b := range [][]byte{key.priv, scalarBytes[:], bound.bound.prefix[:]} { // key.priv is seed ‖ public key
			for i := 0; i+16 <= len(b); i++ {
				w := b[i : i+16]
				out = append(out, string(w), hex.EncodeToString(w), strings.ToUpper(hex.EncodeToString(w)))
			}
		}
		return out
	}()
	fp := pub.Fingerprint()
	want := fmt.Sprintf("VerifyKey(%x)", fp[:])
	for _, verb := range []string{"%v", "%+v", "%#v", "%s", "%x"} {
		for _, v := range []any{bound, *bound, []*VerifyKey{bound}, struct{ K *VerifyKey }{bound}} {
			got := fmt.Sprintf(verb, v)
			for _, w := range windows {
				if strings.Contains(got, w) {
					t.Fatalf("%s of %T shows key material: %q", verb, v, got)
				}
			}
			if !strings.Contains(got, want) {
				t.Errorf("%s of %T = %q, want it to contain %q", verb, v, got, want)
			}
		}
	}
}

// TestSigningKeyParseRefusesOtherSchemes: a well-formed key of the scheme
// this package used to speak is refused, and the error says what is wanted.
func TestSigningKeyParseRefusesOtherSchemes(t *testing.T) {
	p256, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	privDER, err := x509.MarshalPKCS8PrivateKey(p256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSigningKey(privDER); err == nil || !strings.Contains(err.Error(), "Ed25519") {
		t.Errorf("ParseSigningKey(P-256) err = %v, want one naming Ed25519", err)
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&p256.PublicKey)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseVerifyKey(pubDER); err == nil || !strings.Contains(err.Error(), "Ed25519") {
		t.Errorf("ParseVerifyKey(P-256) err = %v, want one naming Ed25519", err)
	}
}

// TestSignVerifyAllocs pins what an endorsement costs the heap: Sign and
// Verify allocate a small constant number of objects, and the same number
// for a 64 B message as for a 64 KiB one — the message is streamed into the
// hash, never copied. VerifyParts is held to Verify's figure at every split
// of the message: the two segments are streamed, never glued. A bound key
// (SelfVerifyKey) checks the scalar equation in stack buffers and allocates
// nothing.
func TestSignVerifyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	// Measured: the returned signature plus three objects inside
	// crypto/ed25519 for Sign, one inside crypto/ed25519 for Verify.
	const maxSignAllocs, maxVerifyAllocs, maxBoundAllocs = 4, 1, 0
	key, err := NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	pub, bound := key.Public(), key.SelfVerifyKey()
	var signAllocs, verifyAllocs, boundAllocs [2]float64
	for i, size := range []int{64, 64 << 10} {
		msg := bytes.Repeat([]byte{0xAB}, size)
		sig, err := key.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		signAllocs[i] = testing.AllocsPerRun(50, func() {
			if _, err := key.Sign(msg); err != nil {
				t.Fatal(err)
			}
		})
		for _, vk := range []struct {
			name   string
			key    *VerifyKey
			allocs *[2]float64
		}{{"public", pub, &verifyAllocs}, {"bound", bound, &boundAllocs}} {
			vk.allocs[i] = testing.AllocsPerRun(50, func() {
				if !vk.key.Verify(msg, sig) {
					t.Fatalf("%s verify failed", vk.name)
				}
			})
			for _, cut := range []int{0, 28, size} {
				if got := testing.AllocsPerRun(50, func() {
					if !vk.key.VerifyParts(msg[:cut], msg[cut:], sig) {
						t.Fatalf("%s verify of a split message failed", vk.name)
					}
				}); got != vk.allocs[i] {
					t.Errorf("%s VerifyParts split at %d of %d: %.0f allocs/op, Verify %.0f", vk.name, cut, size, got, vk.allocs[i])
				}
			}
		}
	}
	if signAllocs[0] != signAllocs[1] || verifyAllocs[0] != verifyAllocs[1] || boundAllocs[0] != boundAllocs[1] {
		t.Errorf("allocations depend on message size: Sign %v, Verify %v, bound Verify %v (64 B, 64 KiB)", signAllocs, verifyAllocs, boundAllocs)
	}
	if signAllocs[0] > maxSignAllocs {
		t.Errorf("Sign: %.0f allocs/op, want <= %d", signAllocs[0], maxSignAllocs)
	}
	if verifyAllocs[0] > maxVerifyAllocs {
		t.Errorf("Verify: %.0f allocs/op, want <= %d", verifyAllocs[0], maxVerifyAllocs)
	}
	if boundAllocs[0] > maxBoundAllocs {
		t.Errorf("bound Verify: %.0f allocs/op, want <= %d", boundAllocs[0], maxBoundAllocs)
	}
}

// benchMsgSize is a dim-64 signed contribution's signed bytes, near enough:
// what fleet-signed signs and verifies once per contribution.
const benchMsgSize = 640

func BenchmarkSign(b *testing.B) {
	key, err := NewSigningKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xAB}, benchMsgSize)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := key.Sign(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify verifies on the curve, as any holder of the public key
// does; BenchmarkVerifyBound checks the scalar equation, as the key's owner
// does.
func BenchmarkVerify(b *testing.B) {
	key, err := NewSigningKey()
	if err != nil {
		b.Fatal(err)
	}
	benchVerify(b, key, key.Public())
}

func BenchmarkVerifyBound(b *testing.B) {
	key, err := NewSigningKey()
	if err != nil {
		b.Fatal(err)
	}
	benchVerify(b, key, key.SelfVerifyKey())
}

func benchVerify(b *testing.B, key *SigningKey, vk *VerifyKey) {
	msg := bytes.Repeat([]byte{0xAB}, benchMsgSize)
	sig, err := key.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if !vk.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}
