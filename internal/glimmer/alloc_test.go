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

// TestSignedViewDecodeAllocFree: the signed variant is decoded — views
// only, no vector materialized, the preimage as two segments — without a
// single heap allocation, cold or steady.
func TestSignedViewDecodeAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	raws := make([][]byte, 64)
	for i := range raws {
		raws[i] = allocContribution(i)
	}
	var v SignedView
	i := 0
	if got := testing.AllocsPerRun(500, func() {
		i++
		if err := v.Decode(raws[i%len(raws)]); err != nil {
			t.Fatal(err)
		}
		if _, tail := v.PreimageParts(); len(tail) == 0 || v.Round != 42 || v.Lanes() != 64 {
			t.Fatal("bad decode")
		}
	}); got > 0 {
		t.Errorf("SignedView.Decode: %.1f allocs/op, want 0", got)
	}
}

// TestSignedViewPreimageIsSignedBytes locks the view to an independent
// re-encode across a traffic mix: PreimageParts glued is the byte string
// SignedContribution.SignedBytes() builds field by field — what the enclave
// signed — and every field and lane reads as the copying decoder's.
func TestSignedViewPreimageIsSignedBytes(t *testing.T) {
	var v SignedView
	for i := 0; i < 8; i++ {
		raw := allocContribution(i)
		want, err := DecodeSignedContribution(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Decode(raw); err != nil {
			t.Fatal(err)
		}
		head, tail := v.PreimageParts()
		if glued := append(append([]byte(nil), head...), tail...); !bytes.Equal(glued, want.SignedBytes()) {
			t.Fatalf("preimage parts do not join to SignedBytes:\n got %x\nwant %x", glued, want.SignedBytes())
		}
		if string(v.ServiceName) != want.ServiceName || v.Round != want.Round ||
			v.Measurement != want.Measurement || v.Confidence != want.Confidence {
			t.Fatalf("decoded header diverges: %+v vs %+v", v, want)
		}
		if v.Lanes() != len(want.Blinded) {
			t.Fatalf("vector length %d vs %d", v.Lanes(), len(want.Blinded))
		}
		got := make(fixed.Vector, v.Lanes())
		fixed.AccumulateWireInto(got, v.LaneBytes)
		for j := range want.Blinded {
			if got[j] != want.Blinded[j] {
				t.Fatalf("vector[%d] diverges", j)
			}
		}
		if !bytes.Equal(v.Signature, want.Signature) {
			t.Fatal("signature diverges")
		}
	}
	// Everything but the measurement is a view: Clear must drop them all.
	v.Clear()
	if v.ServiceName != nil || v.LaneBytes != nil || v.Signature != nil || v.fields != nil {
		t.Fatal("Clear left a view into the input behind")
	}
}

// TestSignedViewRejectsMalformed holds the view and the copying decoder to
// the same refusals.
func TestSignedViewRejectsMalformed(t *testing.T) {
	var v SignedView
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
		if err := v.Decode(raw); err == nil {
			t.Errorf("%s: view accepted malformed input", name)
		}
		if _, _, err := DecodeSignedContributionBytes(raw); err == nil {
			t.Errorf("%s: copying decode accepted malformed input", name)
		}
	}
	// The view recovers after failures.
	if err := v.Decode(good); err != nil {
		t.Fatalf("view did not recover: %v", err)
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
