package glimmer

import (
	"bytes"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
	"glimmers/internal/xcrypto"
)

// TestTicketedViewMatchesScratch locks the zero-copy decoder to the
// materializing one (DecodeTicketedContribution, which the per-item ticket
// scratch folded into): same accepted fields, same lane values, an
// independent copy, and a MAC preimage (as two parts) identical to the
// MACBytes the enclave sealed.
func TestTicketedViewMatchesScratch(t *testing.T) {
	key := xcrypto.SessionKey{9, 9, 9}
	aead := xcrypto.NewSessionAEAD(&key)
	var v TicketedView
	var mac xcrypto.MACState
	for i := 0; i < 8; i++ {
		tc := goldenTicketed()
		tc.Round = uint64(i)
		tc.TicketID = uint64(2000 + i)
		raw := SealTicketedContribution(tc, aead)
		dec, err := DecodeTicketedContribution(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Decode(raw); err != nil {
			t.Fatal(err)
		}
		if string(v.ServiceName) != dec.ServiceName || v.Round != dec.Round ||
			v.TicketID != dec.TicketID || v.Confidence != dec.Confidence {
			t.Fatalf("view header diverges from the copying decode: %+v vs %+v", v, dec)
		}
		if dec.ServiceName != tc.ServiceName || dec.Round != tc.Round ||
			dec.TicketID != tc.TicketID || dec.Confidence != tc.Confidence {
			t.Fatalf("decoded header diverges from what was sealed: %+v vs %+v", dec, tc)
		}
		if !bytes.Equal(v.MAC, dec.MAC) {
			t.Fatal("view MAC diverges")
		}
		if v.Lanes() != len(tc.Blinded) || len(dec.Blinded) != len(tc.Blinded) {
			t.Fatalf("view has %d lanes, copy %d, sealed %d", v.Lanes(), len(dec.Blinded), len(tc.Blinded))
		}
		sum := fixed.NewVector(v.Lanes())
		fixed.AccumulateWireInto(sum, v.LaneBytes)
		for j := range sum {
			if sum[j] != tc.Blinded[j] || dec.Blinded[j] != tc.Blinded[j] {
				t.Fatalf("lane %d: wire accumulate %#x, copying decode %#x, sealed %#x",
					j, uint64(sum[j]), uint64(dec.Blinded[j]), uint64(tc.Blinded[j]))
			}
		}
		head, tail := v.PreimageParts()
		joined := append(append([]byte(nil), head...), tail...)
		if !bytes.Equal(joined, dec.MACBytes()) {
			t.Fatal("preimage parts do not join to MACBytes")
		}
		if !xcrypto.VerifySessionMAC(&key, joined, dec.MAC) {
			t.Fatal("sealed MAC does not verify over the recovered preimage")
		}
		mac.SetKey(&key)
		if !mac.VerifyKeyed(head, tail, v.MAC) {
			t.Fatal("sealed MAC does not verify over the view's preimage parts")
		}
		// The copy is independent of the frame; the view is not.
		want := append([]byte(nil), v.MAC...)
		for j := range raw {
			raw[j] ^= 0xFF
		}
		if !bytes.Equal(dec.MAC, want) || bytes.Equal(v.MAC, want) {
			t.Fatal("copying decode aliases its input, or the view does not")
		}
	}
}

// TestTicketedViewRejectsMalformed holds the view decoder and the copying
// decoder to one refusal surface, error strings included.
func TestTicketedViewRejectsMalformed(t *testing.T) {
	good := EncodeTicketedContribution(goldenTicketed())
	badMagic := append([]byte(nil), good...)
	hdrOff := 4 + len("golden.example") + 8 + 4
	copy(badMagic[hdrOff:], "NOPE")
	shortMAC := goldenTicketed()
	shortMAC.MAC = shortMAC.MAC[:16]
	var v TicketedView
	for name, raw := range map[string][]byte{
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte(nil), good...), 0x00),
		"garbage":   {0xff, 0xff, 0xff, 0xff},
		"bad-magic": badMagic,
		"short-mac": EncodeTicketedContribution(shortMAC),
	} {
		_, copyErr := DecodeTicketedContribution(raw)
		viewErr := v.Decode(raw)
		if viewErr == nil {
			t.Errorf("%s: view accepted malformed input", name)
			continue
		}
		if copyErr == nil {
			t.Errorf("%s: copying decode accepted what the view refused", name)
			continue
		}
		if viewErr.Error() != copyErr.Error() {
			t.Errorf("%s: view error %q != copying decode error %q", name, viewErr, copyErr)
		}
	}
	if err := v.Decode(good); err != nil {
		t.Fatalf("view did not recover after failures: %v", err)
	}
	v.Clear()
	if v.MAC != nil || v.LaneBytes != nil || v.ServiceName != nil {
		t.Fatal("Clear left views behind")
	}
}

// TestTicketedViewDecodeAllocFree pins the whole point of the view: decode
// without a single heap allocation, cold or steady.
func TestTicketedViewDecodeAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	raw := EncodeTicketedContribution(goldenTicketed())
	var v TicketedView
	if got := testing.AllocsPerRun(500, func() {
		if err := v.Decode(raw); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("TicketedView.Decode: %.1f allocs/op, want 0", got)
	}
}

// TestDecodeSignedBytesIndependentCopies guards the copying decoder: the
// returned struct and signed bytes must be independent copies (mutating the
// input must not reach them), errors must return a zero struct, and
// concurrent decodes must stay exact.
func TestDecodeSignedBytesIndependentCopies(t *testing.T) {
	raw := allocContribution(5)
	input := append([]byte(nil), raw...)
	sc, signed, err := DecodeSignedContributionBytes(input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range input {
		input[i] ^= 0xFF
	}
	sc2, signed2, err := DecodeSignedContributionBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if sc.ServiceName != sc2.ServiceName || sc.Blinded.Digest() != sc2.Blinded.Digest() ||
		!bytes.Equal(sc.Signature, sc2.Signature) || !bytes.Equal(signed, signed2) {
		t.Fatal("decoded copy aliases its input")
	}
	if _, _, err := DecodeSignedContributionBytes(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated input accepted")
	}
	if bad, _, _ := DecodeSignedContributionBytes(raw[:len(raw)-2]); bad.ServiceName != "" || bad.Signature != nil {
		t.Fatal("error return is not the zero struct")
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := allocContribution(100 + w)
			want, _, err := DecodeSignedContributionBytes(mine)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 200; i++ {
				got, _, err := DecodeSignedContributionBytes(mine)
				if err != nil {
					t.Error(err)
					return
				}
				if got.Round != want.Round || !bytes.Equal(got.Signature, want.Signature) {
					t.Errorf("worker %d: decode bled across goroutines", w)
					return
				}
				for j := range got.Blinded {
					if got.Blinded[j] != want.Blinded[j] {
						t.Errorf("worker %d: vector lane %d corrupted", w, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
