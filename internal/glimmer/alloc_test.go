package glimmer

import (
	"bytes"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// allocContribution builds one structurally valid encoded contribution
// with a distinct vector per index, mirroring real ingest traffic.
func allocContribution(i int) []byte {
	sc := SignedContribution{
		ServiceName: "alloc.example",
		Round:       42,
		Measurement: tee.Measurement{9},
		Blinded:     make(fixed.Vector, 64),
		Confidence:  1,
		Signature:   bytes.Repeat([]byte{0x5A}, xcrypto.SignatureSize),
	}
	for j := range sc.Blinded {
		sc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + uint64(j))
	}
	return EncodeSignedContribution(sc)
}

// TestScratchDecodeAllocFree pins the tentpole contract: steady-state
// signed-contribution decode into a reused scratch performs zero heap
// allocations.
func TestScratchDecodeAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	raws := make([][]byte, 64)
	for i := range raws {
		raws[i] = allocContribution(i)
	}
	var s ContributionScratch
	// Warm the scratch so growth is behind us, as on a live pipeline.
	if _, err := s.Decode(raws[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		i++
		signed, err := s.Decode(raws[i%len(raws)])
		if err != nil {
			t.Fatal(err)
		}
		if len(signed) == 0 || s.SC.Round != 42 {
			t.Fatal("bad decode")
		}
	}); got > 0 {
		t.Errorf("scratch decode: %.1f allocs/op, want 0", got)
	}
}

// TestScratchDecodeMatchesCopyingDecode locks the scratch decoder to the
// copying decoder across a traffic mix, including the signed-bytes slice
// signature verification consumes.
func TestScratchDecodeMatchesCopyingDecode(t *testing.T) {
	var s ContributionScratch
	for i := 0; i < 8; i++ {
		raw := allocContribution(i)
		want, wantSigned, err := DecodeSignedContributionBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		signed, err := s.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(signed, wantSigned) {
			t.Fatalf("signed bytes diverge:\n got %x\nwant %x", signed, wantSigned)
		}
		if s.SC.ServiceName != want.ServiceName || s.SC.Round != want.Round ||
			s.SC.Measurement != want.Measurement || s.SC.Confidence != want.Confidence {
			t.Fatalf("decoded header diverges: %+v vs %+v", s.SC, want)
		}
		if len(s.SC.Blinded) != len(want.Blinded) {
			t.Fatalf("vector length %d vs %d", len(s.SC.Blinded), len(want.Blinded))
		}
		for j := range want.Blinded {
			if s.SC.Blinded[j] != want.Blinded[j] {
				t.Fatalf("vector[%d] diverges", j)
			}
		}
		if !bytes.Equal(s.SC.Signature, want.Signature) {
			t.Fatal("signature diverges")
		}
	}
}

// TestScratchDecodeRejectsMalformed mirrors the copying decoder's refusal
// behaviour on the scratch path.
func TestScratchDecodeRejectsMalformed(t *testing.T) {
	var s ContributionScratch
	good := allocContribution(1)
	shortMeasurement := wire.NewWriter().
		String("alloc.example").
		Uint64(42).
		Bytes([]byte{1, 2, 3}). // measurement must be exactly 32 bytes
		Uint64s(nil).
		Uint64(1).
		Bytes(nil).
		Finish()
	for name, raw := range map[string][]byte{
		"truncated":         good[:len(good)-3],
		"trailing":          append(append([]byte(nil), good...), 0x00),
		"garbage":           {0xff, 0xff, 0xff, 0xff},
		"short-measurement": shortMeasurement,
	} {
		if _, err := s.Decode(raw); err == nil {
			t.Errorf("%s: scratch decode accepted malformed input", name)
		}
		if _, _, err := DecodeSignedContributionBytes(raw); err == nil {
			t.Errorf("%s: copying decode accepted malformed input", name)
		}
	}
	// The scratch recovers after failures.
	if _, err := s.Decode(good); err != nil {
		t.Fatalf("scratch did not recover: %v", err)
	}
}

// TestPeekContributionRoundAllocFree guards the router's header peek.
func TestPeekContributionRoundAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	raw := allocContribution(3)
	if got := testing.AllocsPerRun(500, func() {
		round, err := PeekContributionRound(raw)
		if err != nil || round != 42 {
			t.Fatalf("round=%d err=%v", round, err)
		}
	}); got > 0 {
		t.Errorf("PeekContributionRound: %.1f allocs/op, want 0", got)
	}
}

// TestPeekContributionService locks the tenant router's name peek to the
// full decoder and to refusal on unroutable bytes.
func TestPeekContributionService(t *testing.T) {
	raw := allocContribution(5)
	name, err := PeekContributionService(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(name) != "alloc.example" {
		t.Fatalf("peeked name %q, want %q", name, "alloc.example")
	}
	for _, bad := range [][]byte{nil, {0x00}, {0x00, 0x00, 0x00, 0x09, 'x'}} {
		if _, err := PeekContributionService(bad); err == nil {
			t.Errorf("peek accepted unroutable bytes %x", bad)
		}
	}
}

// TestPeekContributionServiceAllocFree pins the tenant-routing peek at
// zero heap allocations: the PR-3 zero-allocation ingest path must survive
// frame-level routing.
func TestPeekContributionServiceAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	raw := allocContribution(3)
	if got := testing.AllocsPerRun(500, func() {
		name, err := PeekContributionService(raw)
		if err != nil || len(name) == 0 {
			t.Fatalf("name=%q err=%v", name, err)
		}
	}); got > 0 {
		t.Errorf("PeekContributionService: %.1f allocs/op, want 0", got)
	}
}
