package glimmer

import (
	"bytes"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// fuzzSeedContribution is a structurally valid encoded SignedContribution
// (the signature bytes are arbitrary — the codec does not verify).
func fuzzSeedContribution() []byte {
	sc := SignedContribution{
		ServiceName: "fuzz.example",
		Round:       3,
		Measurement: tee.Measurement{1, 2, 3, 4},
		Blinded:     fixed.Vector{fixed.FromFloat(0.25), fixed.Ring(1 << 63), 0},
		Confidence:  77,
		Signature:   bytes.Repeat([]byte{0x5A}, 64),
	}
	return EncodeSignedContribution(sc)
}

// FuzzDecodeSignedContributionBytes feeds attacker-controlled bytes to the
// contribution decoder — the first parser every submitted contribution
// hits on the service's ingest hot path. It must never panic or allocate
// beyond what the input justifies, and on success the format must be
// canonical: re-encoding reproduces the input, the recovered signed-bytes
// slice matches SignedBytes() of the decoded struct, and the round header
// peek agrees with the full decode.
func FuzzDecodeSignedContributionBytes(f *testing.F) {
	f.Add(fuzzSeedContribution())
	f.Add(EncodeSignedContribution(SignedContribution{}))
	// Hostile shapes: truncated vector count, absurd lengths, wrong-sized
	// measurement, trailing junk, and the ticketed wire variant (which the
	// signed decoder must refuse — the 12-byte ticket header can never pass
	// for a 32-byte measurement).
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0xAA, 0xBB, 0xff, 0xff, 0xff, 0x7f})
	f.Add(append(fuzzSeedContribution(), 0x00))
	f.Add(fuzzSeedTicketed())
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, signed, err := DecodeSignedContributionBytes(data)
		peekRound, peekErr := PeekContributionRound(data)
		if err != nil {
			return
		}
		if re := EncodeSignedContribution(sc); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		if want := sc.SignedBytes(); !bytes.Equal(signed, want) {
			t.Fatalf("signed bytes mismatch:\n got: %x\nwant: %x", signed, want)
		}
		if peekErr != nil {
			t.Fatalf("full decode succeeded but PeekContributionRound failed: %v", peekErr)
		}
		if peekRound != sc.Round {
			t.Fatalf("peeked round %d != decoded round %d", peekRound, sc.Round)
		}
		if PeekContributionTicketed(data) {
			t.Fatal("a decodable signed contribution peeked as ticketed")
		}
	})
}

// fuzzSeedTicketed is a structurally valid encoded TicketedContribution
// (the MAC bytes are arbitrary — the codec does not verify).
func fuzzSeedTicketed() []byte {
	return EncodeTicketedContribution(TicketedContribution{
		ServiceName: "fuzz.example",
		Round:       3,
		TicketID:    0xDEADBEEFCAFE,
		Blinded:     fixed.Vector{fixed.FromFloat(0.25), fixed.Ring(1 << 63), 0},
		Confidence:  77,
		MAC:         bytes.Repeat([]byte{0x5A}, xcrypto.MACSize),
	})
}

// FuzzDecodeTicketedContribution feeds attacker-controlled bytes to the
// MAC'd-variant decoder — the fast-path parser on the ticketed ingest
// route. Same contract as the signed decoder: no panics, canonical
// re-encode on success, view and copying decoders agree, the header
// peeks agree with the full decode, and the two wire variants can never be
// confused for each other.
func FuzzDecodeTicketedContribution(f *testing.F) {
	f.Add(fuzzSeedTicketed())
	f.Add(fuzzSeedContribution())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append(fuzzSeedTicketed(), 0x00))
	f.Add(fuzzSeedTicketed()[:20])
	f.Fuzz(func(t *testing.T, data []byte) {
		tc, err := DecodeTicketedContribution(data)
		if err != nil {
			return
		}
		if !PeekContributionTicketed(data) {
			t.Fatal("decodable ticketed contribution not peeked as ticketed")
		}
		if re := EncodeTicketedContribution(tc); !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not canonical:\n in: %x\nout: %x", data, re)
		}
		var v TicketedView
		if verr := v.Decode(data); verr != nil {
			t.Fatalf("copying decode succeeded but view decode failed: %v", verr)
		}
		head, tail := v.PreimageParts()
		if preimage, want := append(append([]byte(nil), head...), tail...), tc.MACBytes(); !bytes.Equal(preimage, want) {
			t.Fatalf("MAC preimage mismatch:\n got: %x\nwant: %x", preimage, want)
		}
		round, perr := PeekContributionRound(data)
		if perr != nil || round != tc.Round {
			t.Fatalf("round peek = (%d, %v), decoded round %d", round, perr, tc.Round)
		}
		name, nerr := PeekContributionService(data)
		if nerr != nil || string(name) != tc.ServiceName {
			t.Fatalf("service peek = (%q, %v), decoded name %q", name, nerr, tc.ServiceName)
		}
		if _, _, err := DecodeSignedContributionBytes(data); err == nil {
			t.Fatal("signed decoder accepted a ticketed contribution")
		}
	})
}
