package xcrypto

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
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
// of the message: the two segments are streamed, never glued.
func TestSignVerifyAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	// Measured: the returned signature plus three objects inside
	// crypto/ed25519 for Sign, one inside crypto/ed25519 for Verify.
	const maxSignAllocs, maxVerifyAllocs = 4, 1
	key, err := NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	pub := key.Public()
	var signAllocs, verifyAllocs [2]float64
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
		verifyAllocs[i] = testing.AllocsPerRun(50, func() {
			if !pub.Verify(msg, sig) {
				t.Fatal("verify failed")
			}
		})
		for _, cut := range []int{0, 28, size} {
			if got := testing.AllocsPerRun(50, func() {
				if !pub.VerifyParts(msg[:cut], msg[cut:], sig) {
					t.Fatal("verify of a split message failed")
				}
			}); got != verifyAllocs[i] {
				t.Errorf("VerifyParts split at %d of %d: %.0f allocs/op, Verify %.0f", cut, size, got, verifyAllocs[i])
			}
		}
	}
	if signAllocs[0] != signAllocs[1] || verifyAllocs[0] != verifyAllocs[1] {
		t.Errorf("allocations depend on message size: Sign %v, Verify %v (64 B, 64 KiB)", signAllocs, verifyAllocs)
	}
	if signAllocs[0] > maxSignAllocs {
		t.Errorf("Sign: %.0f allocs/op, want <= %d", signAllocs[0], maxSignAllocs)
	}
	if verifyAllocs[0] > maxVerifyAllocs {
		t.Errorf("Verify: %.0f allocs/op, want <= %d", verifyAllocs[0], maxVerifyAllocs)
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

func BenchmarkVerify(b *testing.B) {
	key, err := NewSigningKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := bytes.Repeat([]byte{0xAB}, benchMsgSize)
	sig, err := key.Sign(msg)
	if err != nil {
		b.Fatal(err)
	}
	pub := key.Public()
	b.ReportAllocs()
	for b.Loop() {
		if !pub.Verify(msg, sig) {
			b.Fatal("verify failed")
		}
	}
}
