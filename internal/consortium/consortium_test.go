package consortium

import (
	"errors"
	"testing"

	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/predicate"
)

const dim = 3

func newConsortium(t *testing.T, n, k int) *Consortium {
	t.Helper()
	c, err := New(n, k, predicate.UnitRangeCheck("range", dim))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEndorseValidContribution(t *testing.T) {
	c := newConsortium(t, 5, 3)
	contribution := fixed.FromFloats([]float64{0.1, 0.5, 0.9})
	e, stats, err := c.Endorse(1, contribution, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Sigs) != 5 {
		t.Fatalf("sigs = %d, want 5 (all members endorse)", len(e.Sigs))
	}
	if err := VerifyEndorsement(e, c.VerifyKeys(), c.threshold); err != nil {
		t.Fatal(err)
	}
	if stats.Disclosures != 5 {
		t.Fatalf("disclosures = %d: the consortium design discloses to every member", stats.Disclosures)
	}
	if stats.Messages < 10 {
		t.Fatalf("messages = %d, want request+response per member", stats.Messages)
	}
}

func TestEndorseRejectsInvalidContribution(t *testing.T) {
	c := newConsortium(t, 5, 3)
	malicious := fixed.FromFloats([]float64{538, 0.5, 0.9})
	_, _, err := c.Endorse(1, malicious, nil, nil)
	if !errors.Is(err, ErrThreshold) {
		t.Fatalf("err = %v, want ErrThreshold", err)
	}
}

func TestEndorseWithBlinding(t *testing.T) {
	c := newConsortium(t, 4, 2)
	masks, err := blind.ZeroSumMasks([]byte("cm"), 2, dim)
	if err != nil {
		t.Fatal(err)
	}
	contribution := fixed.FromFloats([]float64{0.2, 0.4, 0.6})
	e, _, err := c.Endorse(1, contribution, nil, masks[0])
	if err != nil {
		t.Fatal(err)
	}
	// Blinded output differs from the raw contribution.
	same := true
	for i := range contribution {
		if e.Blinded[i] != contribution[i] {
			same = false
		}
	}
	if same {
		t.Fatal("endorsement not blinded")
	}
	// Unmasking recovers it.
	back := e.Blinded.Clone()
	back.SubInPlace(masks[0])
	for i := range contribution {
		if back[i] != contribution[i] {
			t.Fatal("unmasking failed")
		}
	}
	if _, _, err := c.Endorse(1, contribution, nil, fixed.NewVector(dim+1)); err == nil {
		t.Fatal("mismatched mask accepted")
	}
}

func TestVerifyEndorsementThreshold(t *testing.T) {
	c := newConsortium(t, 5, 3)
	contribution := fixed.FromFloats([]float64{0.1, 0.2, 0.3})
	e, _, err := c.Endorse(2, contribution, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := c.VerifyKeys()
	// Strip shares below the threshold.
	for idx := range e.Sigs {
		if len(e.Sigs) <= 2 {
			break
		}
		delete(e.Sigs, idx)
	}
	if err := VerifyEndorsement(e, keys, 3); !errors.Is(err, ErrThreshold) {
		t.Fatalf("err = %v, want ErrThreshold", err)
	}
}

func TestVerifyEndorsementRejectsForgedShares(t *testing.T) {
	c := newConsortium(t, 3, 2)
	contribution := fixed.FromFloats([]float64{0.1, 0.2, 0.3})
	e, _, err := c.Endorse(3, contribution, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Forge every share.
	for idx := range e.Sigs {
		e.Sigs[idx] = []byte("forged")
	}
	if err := VerifyEndorsement(e, c.VerifyKeys(), 2); !errors.Is(err, ErrThreshold) {
		t.Fatalf("err = %v, want ErrThreshold", err)
	}
	// Out-of-range member indices are ignored, not a panic.
	e.Sigs[99] = []byte("stray")
	if err := VerifyEndorsement(e, c.VerifyKeys(), 2); !errors.Is(err, ErrThreshold) {
		t.Fatalf("err = %v, want ErrThreshold", err)
	}
}

func TestEndorsementBoundToValue(t *testing.T) {
	// Signatures must not transfer to a different blinded value or round.
	c := newConsortium(t, 3, 2)
	contribution := fixed.FromFloats([]float64{0.1, 0.2, 0.3})
	e, _, err := c.Endorse(4, contribution, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tampered := e
	tampered.Blinded = e.Blinded.Clone()
	tampered.Blinded[0]++
	if err := VerifyEndorsement(tampered, c.VerifyKeys(), 2); err == nil {
		t.Fatal("signatures transferred to altered value")
	}
	tampered = e
	tampered.Round = 5
	if err := VerifyEndorsement(tampered, c.VerifyKeys(), 2); err == nil {
		t.Fatal("signatures transferred to altered round")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(3, 4, predicate.UnitRangeCheck("p", dim)); err == nil {
		t.Fatal("k > n accepted")
	}
	if _, err := New(3, 0, predicate.UnitRangeCheck("p", dim)); err == nil {
		t.Fatal("k = 0 accepted")
	}
	// An unverifiable predicate is refused at consortium setup.
	leak := &predicate.Program{Name: "leak", Code: []predicate.Instr{
		{Op: predicate.OpLoadC, Arg: 0}, {Op: predicate.OpVerdict},
	}}
	if _, err := New(3, 2, leak); err == nil {
		t.Fatal("unverifiable predicate accepted")
	}
}
