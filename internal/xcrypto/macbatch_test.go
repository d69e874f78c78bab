package xcrypto

import (
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

// TestSumKeyedMatchesSessionMAC locks the keyed (snapshot-restoring) path to
// the one-shot HMAC for arbitrary preimage splits: amortization must never
// change a single MAC bit.
func TestSumKeyedMatchesSessionMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m MACState
	for trial := 0; trial < 200; trial++ {
		key := randKey(rng)
		msg := make([]byte, rng.Intn(4096))
		rng.Read(msg)
		cut := 0
		if len(msg) > 0 {
			cut = rng.Intn(len(msg) + 1)
		}
		want := SessionMAC(&key, msg)
		m.SetKey(&key)
		var got [MACSize]byte
		m.SumKeyed(msg[:cut], msg[cut:], &got)
		if got != want {
			t.Fatalf("trial %d (len %d, cut %d): keyed sum diverges from SessionMAC", trial, len(msg), cut)
		}
		if !m.VerifyKeyed(msg[:cut], msg[cut:], want[:]) {
			t.Fatalf("trial %d: VerifyKeyed rejects the true MAC", trial)
		}
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

// TestScalarAndKeyedInterleave guards the state-sharing rule: scalar
// Sum/Verify calls between keyed ones must not corrupt the snapshot cache.
func TestScalarAndKeyedInterleave(t *testing.T) {
	var keyed, scalar SessionKey
	keyed[0], scalar[0] = 7, 9
	msg := []byte("interleaved traffic")
	keyedMAC := SessionMAC(&keyed, msg)
	scalarMAC := SessionMAC(&scalar, msg)
	var m MACState
	m.SetKey(&keyed)
	for i := 0; i < 4; i++ {
		if !m.VerifyKeyed(nil, msg, keyedMAC[:]) {
			t.Fatalf("round %d: keyed verify failed", i)
		}
		if !m.Verify(&scalar, msg, scalarMAC[:]) {
			t.Fatalf("round %d: scalar verify failed", i)
		}
	}
}

// verifyKeyedAll is the batch loop as the service's MAC phase runs it: one
// SetKey, then VerifyKeyed per message, each verdict written into ok[i]. It
// returns the number that verified.
func verifyKeyedAll(m *MACState, key *SessionKey, msgs, macs [][]byte, ok []bool) int {
	m.SetKey(key)
	n := 0
	for i, msg := range msgs {
		ok[i] = m.VerifyKeyed(nil, msg, macs[i])
		if ok[i] {
			n++
		}
	}
	return n
}

// TestVerifyBatch exercises the keyed batch loop: verdicts must agree with
// scalar Verify item by item, including corrupted MACs and wrong-length tags.
func TestVerifyBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
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
		case 2: // truncated tag
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
		t.Fatalf("keyed batch = %d verified, want %d", got, wantN)
	}
	var scalar MACState
	for i := range msgs {
		if ok[i] != want[i] {
			t.Errorf("item %d: batch verdict %v, want %v", i, ok[i], want[i])
		}
		if s := scalar.Verify(&key, msgs[i], macs[i]); s != ok[i] {
			t.Errorf("item %d: batch verdict %v disagrees with scalar %v", i, ok[i], s)
		}
	}
}

// TestVerifyBatchAllocFree pins the keyed path's zero-allocation contract:
// on warm state, SetKey plus a batch of VerifyKeyed allocates nothing.
func TestVerifyBatchAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	var key SessionKey
	key[0] = 3
	const n = 16
	msgs := make([][]byte, n)
	macs := make([][]byte, n)
	ok := make([]bool, n)
	for i := range msgs {
		msgs[i] = make([]byte, 512)
		msgs[i][0] = byte(i)
		mac := SessionMAC(&key, msgs[i])
		macs[i] = append([]byte(nil), mac[:]...)
	}
	var m MACState
	verifyKeyedAll(&m, &key, msgs, macs, ok) // warm the snapshots and hasher
	if got := testing.AllocsPerRun(100, func() {
		if verifyKeyedAll(&m, &key, msgs, macs, ok) != n {
			t.Fatal("batch failed to verify")
		}
	}); got > 0 {
		t.Errorf("SetKey+VerifyKeyed batch: %.1f allocs/op, want 0", got)
	}
}
