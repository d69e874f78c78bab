package glimmer

import (
	"bytes"
	"strings"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
	"glimmers/internal/xcrypto"
)

// goldenTicketed is the frozen MAC'd-contribution fixture: every field
// populated with distinctive values, same spirit as goldenContribution.
func goldenTicketed() TicketedContribution {
	mac := make([]byte, xcrypto.MACSize)
	for i := range mac {
		mac[i] = byte(0xC0 ^ i)
	}
	return TicketedContribution{
		ServiceName: "golden.example",
		Round:       7,
		TicketID:    0x1122334455667788,
		Blinded: fixed.Vector{
			0,
			1,
			fixed.FromFloat(0.5),
			fixed.Ring(1 << 63),
			fixed.Ring(0xFFFFFFFFFFFFFFFF),
		},
		Confidence: 100,
		MAC:        mac,
	}
}

func TestGoldenTicketedContribution(t *testing.T) {
	want := readGolden(t, "ticketed_contribution.hex")
	tc := goldenTicketed()
	if got := EncodeTicketedContribution(tc); !bytes.Equal(got, want) {
		t.Fatalf("encoding changed:\n got: %x\nwant: %x", got, want)
	}
	dec, err := DecodeTicketedContribution(want)
	if err != nil {
		t.Fatal(err)
	}
	if dec.ServiceName != tc.ServiceName || dec.Round != tc.Round ||
		dec.TicketID != tc.TicketID || dec.Confidence != tc.Confidence {
		t.Fatalf("decoded fields differ: %+v", dec)
	}
	if !bytes.Equal(dec.MAC, tc.MAC) {
		t.Error("MAC differs")
	}
	wantPre := readGolden(t, "ticketed_contribution_preimage.hex")
	if got := tc.MACBytes(); !bytes.Equal(got, wantPre) {
		t.Fatalf("MAC preimage changed:\n got: %x\nwant: %x", got, wantPre)
	}
}

// TestTicketedPeeksUnchanged pins the routing contract: the ticketed
// variant leads with the same (service, round) fields, so the existing
// header peeks route both variants identically, and the variant peek
// distinguishes them.
func TestTicketedPeeksUnchanged(t *testing.T) {
	ticketed := EncodeTicketedContribution(goldenTicketed())
	signed := readGolden(t, "signed_contribution.hex")

	name, err := PeekContributionService(ticketed)
	if err != nil || string(name) != "golden.example" {
		t.Fatalf("service peek on ticketed = (%q, %v)", name, err)
	}
	round, err := PeekContributionRound(ticketed)
	if err != nil || round != 7 {
		t.Fatalf("round peek on ticketed = (%d, %v)", round, err)
	}
	if !PeekContributionTicketed(ticketed) {
		t.Fatal("variant peek missed a ticketed contribution")
	}
	if PeekContributionTicketed(signed) {
		t.Fatal("variant peek misclassified a signed contribution")
	}
	for _, bad := range [][]byte{nil, {0x00}, {0xff, 0xff, 0xff, 0xff}} {
		if PeekContributionTicketed(bad) {
			t.Fatalf("variant peek accepted garbage %x", bad)
		}
	}
}

// TestDecodeTicketedRejectsMalformed mirrors the signed decoder's refusal
// surface, plus the variant-confusion cases.
func TestDecodeTicketedRejectsMalformed(t *testing.T) {
	good := EncodeTicketedContribution(goldenTicketed())
	badMagic := append([]byte(nil), good...)
	// The ticket header's magic starts right after the name field's length
	// prefix + content and the 8-byte round and the 4-byte header length.
	hdrOff := 4 + len("golden.example") + 8 + 4
	copy(badMagic[hdrOff:], "NOPE")
	shortMAC := goldenTicketed()
	shortMAC.MAC = shortMAC.MAC[:16]
	signed := readGolden(t, "signed_contribution.hex")
	for name, raw := range map[string][]byte{
		"truncated":      good[:len(good)-3],
		"trailing":       append(append([]byte(nil), good...), 0x00),
		"garbage":        {0xff, 0xff, 0xff, 0xff},
		"bad-magic":      badMagic,
		"short-mac":      EncodeTicketedContribution(shortMAC),
		"signed-variant": signed,
	} {
		if _, err := DecodeTicketedContribution(raw); err == nil {
			t.Errorf("%s: copying decode accepted malformed input", name)
		}
	}
	// A ticketed message fed to the signed decoder must be refused too.
	var sv SignedView
	if err := sv.Decode(good); err == nil {
		t.Error("signed view accepted a ticketed contribution")
	}
}

// TestTicketedRefusesEarlierScheme: a contribution in the HMAC-era
// encoding (magic GTK1, a 32-byte MAC) still routes as ticketed, because
// dispatch is by the header's length, and is refused there as a bad ticket
// header rather than reaching any MAC check.
func TestTicketedRefusesEarlierScheme(t *testing.T) {
	old := goldenTicketed()
	old.MAC = bytes.Repeat([]byte{0xC0}, 32)
	raw := EncodeTicketedContribution(old)
	hdrOff := 4 + len("golden.example") + 8 + 4
	if string(raw[hdrOff:hdrOff+4]) != ticketedMagic {
		t.Fatalf("header offset %d does not hold the magic", hdrOff)
	}
	copy(raw[hdrOff:], "GTK1")
	if !PeekContributionTicketed(raw) {
		t.Fatal("a GTK1 contribution did not route as ticketed")
	}
	var v TicketedView
	err := v.Decode(raw)
	if err == nil || !strings.Contains(err.Error(), "bad ticket header") {
		t.Fatalf("GTK1 decode err = %v, want a bad ticket header", err)
	}
	if _, cerr := DecodeTicketedContribution(raw); cerr == nil || cerr.Error() != err.Error() {
		t.Fatalf("copying decode err = %v, view err = %v", cerr, err)
	}
}

// TestPeekContributionTicketedAllocFree guards the dispatch peek.
func TestPeekContributionTicketedAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	ticketed := EncodeTicketedContribution(goldenTicketed())
	signed := allocContribution(3)
	if got := testing.AllocsPerRun(500, func() {
		if !PeekContributionTicketed(ticketed) || PeekContributionTicketed(signed) {
			t.Fatal("peek misclassified")
		}
	}); got > 0 {
		t.Errorf("PeekContributionTicketed: %.1f allocs/op, want 0", got)
	}
}

// TestEncodeSignedContributionSingleAlloc pins the pooled-writer encoder:
// one exact-size allocation per message at steady state.
func TestEncodeSignedContributionSingleAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	sc, _, err := DecodeSignedContributionBytes(allocContribution(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() {
		if len(EncodeSignedContribution(sc)) == 0 {
			t.Fatal("empty encoding")
		}
	}); got > 1 {
		t.Errorf("EncodeSignedContribution: %.1f allocs/op, want 1", got)
	}
}

// TestDecodeSignedContributionBytesTwoAllocs pins the copying decoder at
// three allocations: the two its name counts — the vector, and one buffer
// holding the signature and the signed bytes — and the service-name string.
// The pooled scratch this decoder used to borrow cached the name between
// calls; it copies out of a SignedView now, which caches nothing, and no hot
// loop calls it, so the pin moved rather than a cache being added. Same
// three as DecodeTicketedContribution.
func TestDecodeSignedContributionBytesTwoAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	raw := allocContribution(1)
	if got := testing.AllocsPerRun(500, func() {
		if _, _, err := DecodeSignedContributionBytes(raw); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("DecodeSignedContributionBytes: %.1f allocs/op, want 3", got)
	}
	if got := testing.AllocsPerRun(500, func() {
		if _, err := DecodeSignedContribution(raw); err != nil {
			t.Fatal(err)
		}
	}); got > 3 {
		t.Errorf("DecodeSignedContribution: %.1f allocs/op, want 3", got)
	}
	// Signature and signed bytes share a buffer; growing the first must
	// not reach the second.
	sc, signed, err := DecodeSignedContributionBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	_ = append(sc.Signature, 0xFF)
	if !bytes.HasPrefix(signed, signedContributionHeader) {
		t.Fatal("appending to the signature overwrote the signed bytes")
	}
}
