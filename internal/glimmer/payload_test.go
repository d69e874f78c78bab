package glimmer_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
)

func TestProvisionPayloadRoundTrip(t *testing.T) {
	p := glimmer.ProvisionPayload{
		SigningKey:        []byte("key-der"),
		Predicate:         []byte("predicate-bytes"),
		PartyIndex:        2,
		Roster:            [][]byte{[]byte("pk0"), []byte("pk1"), []byte("pk2")},
		DealerMeasurement: bytes.Repeat([]byte{0xAB}, 32),
		AttestationRoot:   []byte("root-der"),
	}
	back, err := glimmer.DecodeProvision(glimmer.EncodeProvision(p))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.SigningKey, p.SigningKey) || !bytes.Equal(back.Predicate, p.Predicate) {
		t.Fatal("key/predicate corrupted")
	}
	if back.PartyIndex != 2 || len(back.Roster) != 3 || !bytes.Equal(back.Roster[1], []byte("pk1")) {
		t.Fatal("roster corrupted")
	}
	if !bytes.Equal(back.DealerMeasurement, p.DealerMeasurement) || !bytes.Equal(back.AttestationRoot, p.AttestationRoot) {
		t.Fatal("dealer fields corrupted")
	}
}

func TestProvisionPayloadEncodingDeterministic(t *testing.T) {
	// The encoding feeds MACs: one payload always encodes the same way.
	p := glimmer.ProvisionPayload{
		SigningKey: []byte("k"),
		Predicate:  []byte("p"),
		Roster:     [][]byte{[]byte("pk0"), []byte("pk1")},
	}
	first := glimmer.EncodeProvision(p)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(glimmer.EncodeProvision(p), first) {
			t.Fatal("provision encoding is non-deterministic")
		}
	}
}

func TestDecodeProvisionRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("x"),
		bytes.Repeat([]byte{0xFF}, 64),
	}
	for _, c := range cases {
		if _, err := glimmer.DecodeProvision(c); err == nil {
			t.Errorf("garbage %v decoded", c)
		}
	}
}

func TestSignedContributionCodecTruncation(t *testing.T) {
	sc := glimmer.SignedContribution{
		ServiceName: "svc",
		Round:       1,
		Measurement: tee.Measurement{1},
		Blinded:     fixed.Vector{1, 2, 3},
		Confidence:  1,
		Signature:   []byte("sig"),
	}
	raw := glimmer.EncodeSignedContribution(sc)
	for _, cut := range []int{0, 1, len(raw) / 2, len(raw) - 1} {
		if _, err := glimmer.DecodeSignedContribution(raw[:cut]); err == nil {
			t.Errorf("truncation at %d decoded", cut)
		}
	}
	if _, err := glimmer.DecodeSignedContribution(append(raw, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
}

// The decode fast path must return byte-for-byte what SignedBytes would
// re-encode — that equality is what lets the aggregation pipeline verify
// signatures without rebuilding each message.
func TestDecodeSignedContributionBytesMatchesSignedBytes(t *testing.T) {
	sc := glimmer.SignedContribution{
		ServiceName: "svc",
		Round:       42,
		Measurement: tee.Measurement{7, 8, 9},
		Blinded:     fixed.Vector{1, 2, 3, 1 << 60},
		Confidence:  77,
		Signature:   []byte("sig"),
	}
	raw := glimmer.EncodeSignedContribution(sc)
	back, signed, err := glimmer.DecodeSignedContributionBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(signed, back.SignedBytes()) {
		t.Fatal("fast-path signed bytes differ from SignedBytes re-encoding")
	}
	if back.ServiceName != sc.ServiceName || back.Round != sc.Round || back.Confidence != sc.Confidence {
		t.Fatalf("decode mismatch: %+v", back)
	}
	round, err := glimmer.PeekContributionRound(raw)
	if err != nil || round != sc.Round {
		t.Fatalf("PeekContributionRound = (%d, %v), want %d", round, err, sc.Round)
	}
	if _, err := glimmer.PeekContributionRound([]byte("xx")); err == nil {
		t.Fatal("peek of garbage succeeded")
	}
}

func TestVerdictCodecRejectsBadHeader(t *testing.T) {
	v := glimmer.Verdict{ServiceName: "svc", Challenge: []byte("c"), Human: true, Signature: []byte("s")}
	raw := glimmer.EncodeVerdict(v)
	back, err := glimmer.DecodeVerdict(raw)
	if err != nil || back.ServiceName != "svc" || !back.Human {
		t.Fatalf("round trip = (%+v, %v)", back, err)
	}
	// Corrupt the header length prefix region.
	bad := append([]byte(nil), raw...)
	bad[4] ^= 1
	if _, err := glimmer.DecodeVerdict(bad); err == nil {
		t.Fatal("bad header accepted")
	}
}

// Property: contribution requests round trip for arbitrary contents.
func TestQuickContributionRequestRoundTrip(t *testing.T) {
	f := func(round uint64, contribution, private []uint64) bool {
		req := glimmer.ContributionRequest{Round: round, Contribution: contribution, Private: private}
		back, err := glimmer.DecodeContribution(glimmer.EncodeContribution(req))
		if err != nil || back.Round != round ||
			len(back.Contribution) != len(contribution) || len(back.Private) != len(private) {
			return false
		}
		for i := range contribution {
			if back.Contribution[i] != contribution[i] {
				return false
			}
		}
		for i := range private {
			if back.Private[i] != private[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
