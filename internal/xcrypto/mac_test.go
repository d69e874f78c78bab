package xcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"math/rand"
	"testing"

	"glimmers/internal/race"
)

// randKey derives a deterministic test key from a seeded source.
func randKey(rng *rand.Rand) SessionKey {
	var k SessionKey
	rng.Read(k[:])
	return k
}

// gcmTag is the oracle: the tag crypto/cipher's AES-256-GCM computes for an
// empty plaintext with msg as additional data, under the given nonce.
func gcmTag(t testing.TB, key *SessionKey, nonce, msg []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	return aead.Seal(nil, nonce, nil, msg)
}

// TestSessionMACMatchesGCMOracle locks the MAC to its definition across
// sizes and rekeying: the nonce, then the standard library's GCM tag over
// an empty plaintext with the message as additional data. Every way in —
// SessionMAC, AppendSessionMAC under a reused AEAD — produces it, and
// every check accepts it.
func TestSessionMACMatchesGCMOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m MACState
	for _, msgLen := range []int{0, 1, 15, 16, 17, 63, 64, 65, 1000, 2100, 4096} {
		key := randKey(rng)
		msg := make([]byte, msgLen)
		rng.Read(msg)
		aead := NewSessionAEAD(&key)
		for _, mac := range [][]byte{
			func() []byte { mac := SessionMAC(&key, msg); return mac[:] }(),
			AppendSessionMAC(nil, aead, msg),
			AppendSessionMAC([]byte("prefix"), aead, msg)[len("prefix"):],
		} {
			if len(mac) != MACSize {
				t.Fatalf("msgLen %d: MAC is %d bytes, want %d", msgLen, len(mac), MACSize)
			}
			if want := gcmTag(t, &key, mac[:MACNonceSize], msg); !bytes.Equal(mac[MACNonceSize:], want) {
				t.Fatalf("msgLen %d: tag diverges from cipher.NewGCM", msgLen)
			}
			m.SetKey(&key)
			if !VerifySessionMAC(&key, msg, mac) || !OpenSessionMAC(aead, msg, mac) ||
				!m.VerifyKeyed(nil, msg, mac) {
				t.Fatalf("msgLen %d: a check refused the genuine MAC", msgLen)
			}
		}
	}
}

// TestVerifyKeyedMatchesOneShot: checking a preimage in two segments at any
// split gives the one-shot verdict, for genuine and corrupted MACs alike.
func TestVerifyKeyedMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var m MACState
	for trial := 0; trial < 200; trial++ {
		key := randKey(rng)
		msg := make([]byte, rng.Intn(4096))
		rng.Read(msg)
		cut := rng.Intn(len(msg) + 1)
		mac := SessionMAC(&key, msg)
		if trial%2 == 1 {
			mac[rng.Intn(MACSize)] ^= 1 << rng.Intn(8)
		}
		m.SetKey(&key)
		if got, want := m.VerifyKeyed(msg[:cut], msg[cut:], mac[:]), VerifySessionMAC(&key, msg, mac[:]); got != want || want != (trial%2 == 0) {
			t.Fatalf("trial %d (len %d, cut %d): keyed %v, one-shot %v", trial, len(msg), cut, got, want)
		}
	}
}

// TestMACVerifyRefusals pins the refusal surface: every single-bit
// flip of the 28-byte field, and of the preimage, is refused, as are the
// wrong key and a truncated message; the genuine MAC still verifies after.
func TestMACVerifyRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	key, otherKey := randKey(rng), randKey(rng)
	msg := []byte("glimmers: per-session amortized authentication")
	mac := SessionMAC(&key, msg)
	var m MACState
	m.SetKey(&key)
	for bit := 0; bit < 8*MACSize; bit++ {
		bad := mac
		bad[bit/8] ^= 1 << (bit % 8)
		if m.VerifyKeyed(nil, msg, bad[:]) || VerifySessionMAC(&key, msg, bad[:]) {
			t.Fatalf("accepted MAC with bit %d flipped", bit)
		}
	}
	for bit := 0; bit < 8*len(msg); bit++ {
		bad := append([]byte(nil), msg...)
		bad[bit/8] ^= 1 << (bit % 8)
		if m.VerifyKeyed(bad[:3], bad[3:], mac[:]) || VerifySessionMAC(&key, bad, mac[:]) {
			t.Fatalf("accepted MAC over the message with bit %d flipped", bit)
		}
	}
	if VerifySessionMAC(&otherKey, msg, mac[:]) {
		t.Fatal("accepted MAC under the wrong key")
	}
	if VerifySessionMAC(&key, msg[:len(msg)-1], mac[:]) {
		t.Fatal("accepted MAC over a truncated message")
	}
	if !m.VerifyKeyed(nil, msg, mac[:]) {
		t.Fatal("state poisoned: the genuine MAC no longer verifies")
	}
}

// countingAEAD records every Open that reaches the cipher.
type countingAEAD struct {
	cipher.AEAD
	opens int
}

func (c *countingAEAD) Open(dst, nonce, ciphertext, ad []byte) ([]byte, error) {
	c.opens++
	return c.AEAD.Open(dst, nonce, ciphertext, ad)
}

// TestSessionMACLengthRefusedBeforeAES: a MAC field of any length but
// MACSize — including a genuine MAC with a byte cut off or one appended —
// is refused without AES running.
func TestSessionMACLengthRefusedBeforeAES(t *testing.T) {
	key := SessionKey{5}
	msg := []byte("length first")
	mac := SessionMAC(&key, msg)
	counting := &countingAEAD{AEAD: NewSessionAEAD(&key)}
	m := MACState{key: key, aead: counting}
	for n := 0; n <= 2*MACSize; n++ {
		if n == MACSize {
			continue
		}
		field := bytes.Repeat([]byte{0xA5}, n)
		copy(field, mac[:])
		if OpenSessionMAC(counting, msg, field) || m.VerifyKeyed(nil, msg, field) || VerifySessionMAC(&key, msg, field) {
			t.Fatalf("accepted a %d-byte MAC field", n)
		}
	}
	if counting.opens != 0 {
		t.Fatalf("%d wrong-length fields reached AES", counting.opens)
	}
	if !OpenSessionMAC(counting, msg, mac[:]) || counting.opens != 1 {
		t.Fatalf("genuine MAC: opens = %d, want one verified", counting.opens)
	}
}

// TestSessionMACNoncesDiffer: two seals of one preimage under one key carry
// different nonces, hence different bytes, and both verify.
func TestSessionMACNoncesDiffer(t *testing.T) {
	key := SessionKey{7}
	msg := []byte("the same contribution, sealed twice")
	aead := NewSessionAEAD(&key)
	a, b := AppendSessionMAC(nil, aead, msg), AppendSessionMAC(nil, aead, msg)
	if bytes.Equal(a[:MACNonceSize], b[:MACNonceSize]) || bytes.Equal(a, b) {
		t.Fatalf("two seals of one message share bytes: %x", a)
	}
	if !OpenSessionMAC(aead, msg, a) || !OpenSessionMAC(aead, msg, b) {
		t.Fatal("a fresh seal does not verify")
	}
}

// TestSetKeySwitchesKeys guards the cache-invalidation edge: after SetKey
// with a second key, MACs under the first key must no longer verify.
func TestSetKeySwitchesKeys(t *testing.T) {
	var k1, k2 SessionKey
	k1[0], k2[0] = 1, 2
	msg := []byte("the same message")
	mac1 := SessionMAC(&k1, msg)
	mac2 := SessionMAC(&k2, msg)
	var m MACState
	m.SetKey(&k1)
	if !m.VerifyKeyed(nil, msg, mac1[:]) {
		t.Fatal("k1 MAC rejected under k1")
	}
	m.SetKey(&k2)
	if m.VerifyKeyed(nil, msg, mac1[:]) {
		t.Fatal("k1 MAC accepted after switching to k2")
	}
	if !m.VerifyKeyed(nil, msg, mac2[:]) {
		t.Fatal("k2 MAC rejected under k2")
	}
	// Re-setting the same key is the hot no-op path.
	m.SetKey(&k2)
	if !m.VerifyKeyed(nil, msg, mac2[:]) {
		t.Fatal("k2 MAC rejected after idempotent SetKey")
	}
}

// verifyKeyedAll is a frame under one ticket as a per-item loop checks it:
// SetKey per item (a no-op after the first), then VerifyKeyed, each verdict
// written into ok[i]. It returns the number that verified.
func verifyKeyedAll(m *MACState, key *SessionKey, msgs, macs [][]byte, ok []bool) int {
	n := 0
	for i, msg := range msgs {
		m.SetKey(key)
		ok[i] = m.VerifyKeyed(msg[:len(msg)/2], msg[len(msg)/2:], macs[i])
		if ok[i] {
			n++
		}
	}
	return n
}

// TestVerifyBatch exercises the keyed loop: verdicts must agree with the
// one-shot check item by item, including corrupted MACs, wrong-length
// fields and corrupted messages.
func TestVerifyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key := randKey(rng)
	const n = 64
	msgs := make([][]byte, n)
	macs := make([][]byte, n)
	want := make([]bool, n)
	wantN := 0
	for i := range msgs {
		msgs[i] = make([]byte, 16+rng.Intn(512))
		rng.Read(msgs[i])
		mac := SessionMAC(&key, msgs[i])
		macs[i] = append([]byte(nil), mac[:]...)
		want[i] = true
		switch i % 5 {
		case 1: // flipped MAC bit
			macs[i][rng.Intn(MACSize)] ^= 0x40
			want[i] = false
		case 2: // truncated field
			macs[i] = macs[i][:MACSize-1]
			want[i] = false
		case 3: // flipped message bit
			msgs[i][rng.Intn(len(msgs[i]))] ^= 0x01
			want[i] = false
		}
		if want[i] {
			wantN++
		}
	}
	var m MACState
	ok := make([]bool, n)
	if got := verifyKeyedAll(&m, &key, msgs, macs, ok); got != wantN {
		t.Fatalf("keyed loop = %d verified, want %d", got, wantN)
	}
	for i := range msgs {
		if ok[i] != want[i] {
			t.Errorf("item %d: keyed verdict %v, want %v", i, ok[i], want[i])
		}
		if s := VerifySessionMAC(&key, msgs[i], macs[i]); s != ok[i] {
			t.Errorf("item %d: keyed verdict %v disagrees with one-shot %v", i, ok[i], s)
		}
	}
}

// TestVerifyBatchAllocFree pins the keyed path's zero-allocation contract:
// on warm state, a run of SetKey plus VerifyKeyed under one key allocates
// nothing — no AEAD, no preimage buffer.
func TestVerifyBatchAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	key := SessionKey{3}
	const n = 16
	msgs := make([][]byte, n)
	macs := make([][]byte, n)
	ok := make([]bool, n)
	for i := range msgs {
		msgs[i] = make([]byte, 2048)
		msgs[i][0] = byte(i)
		mac := SessionMAC(&key, msgs[i])
		macs[i] = append([]byte(nil), mac[:]...)
	}
	var m MACState
	verifyKeyedAll(&m, &key, msgs, macs, ok) // warm the AEAD and the preimage buffer
	if got := testing.AllocsPerRun(100, func() {
		if verifyKeyedAll(&m, &key, msgs, macs, ok) != n {
			t.Fatal("batch failed to verify")
		}
	}); got > 0 {
		t.Errorf("SetKey+VerifyKeyed batch: %.1f allocs/op, want 0", got)
	}
}

// TestMACStateAllocFree pins the sealing side under a reused AEAD and the
// check under a shared one: appending a MAC into a buffer with room, and
// opening one, allocate nothing.
func TestMACStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	key := SessionKey{4}
	aead := NewSessionAEAD(&key)
	msg := bytes.Repeat([]byte{0xAB}, 2048)
	buf := make([]byte, 0, MACSize)
	if got := testing.AllocsPerRun(500, func() {
		mac := AppendSessionMAC(buf[:0], aead, msg)
		if !OpenSessionMAC(aead, msg, mac) {
			t.Fatal("verify failed")
		}
	}); got > 0 {
		t.Errorf("AppendSessionMAC+OpenSessionMAC: %.1f allocs/op, want 0", got)
	}
}

// TestDeriveTicketKeyDomainSeparation: the key is bound to service and
// ticket identity, and both DH directions derive the same key.
func TestDeriveTicketKeyDomainSeparation(t *testing.T) {
	device, err := NewDHKey()
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewDHKey()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := device.Shared(server.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := server.Shared(device.PublicBytes())
	if err != nil {
		t.Fatal(err)
	}
	a := DeriveTicketKey(s1, "svc.example", 7)
	b := DeriveTicketKey(s2, "svc.example", 7)
	if a != b {
		t.Fatal("the two DH directions derive different ticket keys")
	}
	if a == DeriveTicketKey(s1, "other.example", 7) {
		t.Fatal("ticket key not bound to the service name")
	}
	if a == DeriveTicketKey(s1, "svc.example", 8) {
		t.Fatal("ticket key not bound to the ticket ID")
	}
}

// BenchmarkSessionMAC times one seal and one check of a dim-256
// contribution's preimage (~2.1 KB) under a reused AEAD, and the AEAD build
// a cold ticket pays.
func BenchmarkSessionMAC(b *testing.B) {
	key := SessionKey{9}
	aead := NewSessionAEAD(&key)
	msg := make([]byte, 2100)
	mac := AppendSessionMAC(nil, aead, msg)
	buf := make([]byte, 0, MACSize)
	b.Run("seal", func(b *testing.B) {
		b.SetBytes(int64(len(msg)))
		for range b.N {
			AppendSessionMAC(buf[:0], aead, msg)
		}
	})
	b.Run("open", func(b *testing.B) {
		b.SetBytes(int64(len(msg)))
		for range b.N {
			OpenSessionMAC(aead, msg, mac)
		}
	})
	b.Run("new-aead", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			NewSessionAEAD(&key)
		}
	})
}
