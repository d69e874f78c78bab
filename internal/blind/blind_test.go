package blind

import (
	"bytes"
	"testing"
	"testing/quick"

	"glimmers/internal/fixed"
	"glimmers/internal/xcrypto"
)

func TestZeroSumMasksCancel(t *testing.T) {
	for _, n := range []int{1, 2, 3, 16, 101} {
		masks, err := ZeroSumMasks([]byte("round-1"), n, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(masks) != n {
			t.Fatalf("got %d masks, want %d", len(masks), n)
		}
		sum := fixed.NewVector(5)
		for _, m := range masks {
			sum.AddInPlace(m)
		}
		for d, v := range sum {
			if v != 0 {
				t.Fatalf("n=%d: mask sum at dim %d = %d, want 0", n, d, v)
			}
		}
	}
}

func TestZeroSumMasksDeterministicPerSeed(t *testing.T) {
	a, err := ZeroSumMasks([]byte("seed"), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ZeroSumMasks([]byte("seed"), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for d := range a[i] {
			if a[i][d] != b[i][d] {
				t.Fatal("same seed produced different masks")
			}
		}
	}
	c, err := ZeroSumMasks([]byte("other"), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a[0][0] == c[0][0] && a[0][1] == c[0][1] && a[0][2] == c[0][2] {
		t.Fatal("different seeds produced identical first mask")
	}
}

func TestZeroSumMasksRejectsBadParams(t *testing.T) {
	if _, err := ZeroSumMasks(nil, 0, 3); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := ZeroSumMasks(nil, 3, 0); err == nil {
		t.Error("dim=0 accepted")
	}
}

func TestApplyRemoveRoundTrip(t *testing.T) {
	contribution := fixed.FromFloats([]float64{0.1, 0.9, 0.5})
	masks, err := ZeroSumMasks([]byte("s"), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	blinded, err := Apply(contribution, masks[0])
	if err != nil {
		t.Fatal(err)
	}
	back := blinded.Clone()
	back.SubInPlace(masks[0])
	for i := range contribution {
		if back[i] != contribution[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
	if _, err := Apply(contribution, fixed.NewVector(2)); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestDealerAggregationEndToEnd(t *testing.T) {
	// Figure 1c: N clients blind contributions; the aggregate of blinded
	// values equals the aggregate of true values exactly.
	const n, dim = 8, 4
	masks, err := ZeroSumMasks([]byte("epoch-7"), n, dim)
	if err != nil {
		t.Fatal(err)
	}
	trueSum := fixed.NewVector(dim)
	blindSum := fixed.NewVector(dim)
	prg := xcrypto.NewPRG([]byte("contributions"))
	for i := 0; i < n; i++ {
		contribution := fixed.NewVector(dim)
		for d := range contribution {
			contribution[d] = fixed.FromFloat(prg.Float64())
		}
		trueSum.AddInPlace(contribution)
		blinded, err := Apply(contribution, masks[i])
		if err != nil {
			t.Fatal(err)
		}
		blindSum.AddInPlace(blinded)
	}
	for d := range trueSum {
		if trueSum[d] != blindSum[d] {
			t.Fatalf("aggregate mismatch at dim %d", d)
		}
	}
}

func newRoster(t *testing.T, n int) ([]*xcrypto.DHKey, [][]byte) {
	t.Helper()
	keys := make([]*xcrypto.DHKey, n)
	roster := make([][]byte, n)
	for i := range keys {
		k, err := xcrypto.NewDHKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		roster[i] = k.PublicBytes()
	}
	return keys, roster
}

func newParties(t *testing.T, n int) []*Party {
	t.Helper()
	keys, roster := newRoster(t, n)
	parties := make([]*Party, n)
	for i := range parties {
		p, err := NewParty(i, keys[i], roster)
		if err != nil {
			t.Fatal(err)
		}
		parties[i] = p
	}
	return parties
}

func TestPairwiseMasksCancel(t *testing.T) {
	const n, dim = 6, 5
	parties := newParties(t, n)
	sum := fixed.NewVector(dim)
	for _, p := range parties {
		mask, err := p.Mask(dim, 42)
		if err != nil {
			t.Fatal(err)
		}
		sum.AddInPlace(mask)
	}
	for d, v := range sum {
		if v != 0 {
			t.Fatalf("pairwise mask sum at dim %d = %d, want 0", d, v)
		}
	}
}

func TestPairwiseMasksDifferPerRound(t *testing.T) {
	parties := newParties(t, 3)
	m1, err := parties[0].Mask(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := parties[0].Mask(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for d := range m1 {
		if m1[d] != m2[d] {
			same = false
		}
	}
	if same {
		t.Fatal("masks identical across rounds — replay across epochs possible")
	}
}

func TestPairwiseSeedSymmetry(t *testing.T) {
	parties := newParties(t, 4)
	s01, err := parties[0].SeedWith(1)
	if err != nil {
		t.Fatal(err)
	}
	s10, err := parties[1].SeedWith(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s01, s10) {
		t.Fatal("pairwise seeds are not symmetric")
	}
	s02, err := parties[0].SeedWith(2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s01, s02) {
		t.Fatal("distinct pairs share a seed")
	}
	if _, err := parties[0].SeedWith(0); err == nil {
		t.Error("self-seed accepted")
	}
	if _, err := parties[0].SeedWith(9); err == nil {
		t.Error("out-of-roster peer accepted")
	}
}

func TestNewPartyValidation(t *testing.T) {
	keys, roster := newRoster(t, 3)
	if _, err := NewParty(5, keys[0], roster); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := NewParty(1, keys[0], roster); err == nil {
		t.Error("mismatched roster key accepted")
	}
}

func TestDropoutRecoveryViaRevealedSeeds(t *testing.T) {
	// Party 2 drops after contributing its blinded value never arrives.
	// Survivors reveal their seeds with party 2; the aggregator recomputes
	// party 2's mask and the surviving sum unmasks exactly.
	const n, dim, round = 5, 3, 9
	parties := newParties(t, n)
	const dropped = 2

	prg := xcrypto.NewPRG([]byte("xs"))
	blindSum := fixed.NewVector(dim)
	trueSumSurvivors := fixed.NewVector(dim)
	for i, p := range parties {
		if i == dropped {
			continue
		}
		contribution := fixed.NewVector(dim)
		for d := range contribution {
			contribution[d] = fixed.FromFloat(prg.Float64())
		}
		trueSumSurvivors.AddInPlace(contribution)
		mask, err := p.Mask(dim, round)
		if err != nil {
			t.Fatal(err)
		}
		blinded, err := Apply(contribution, mask)
		if err != nil {
			t.Fatal(err)
		}
		blindSum.AddInPlace(blinded)
	}
	// Sum of survivor masks = -mask(dropped), so blindSum = trueSum -
	// mask(dropped). Reconstruct the dropped mask and add it back.
	seeds := make(map[int][]byte)
	for i, p := range parties {
		if i == dropped {
			continue
		}
		s, err := p.SeedWith(dropped)
		if err != nil {
			t.Fatal(err)
		}
		seeds[i] = s
	}
	recovered, err := RecoverMask(dropped, n, dim, round, seeds)
	if err != nil {
		t.Fatal(err)
	}
	blindSum.AddInPlace(recovered)
	for d := range trueSumSurvivors {
		if blindSum[d] != trueSumSurvivors[d] {
			t.Fatalf("recovered aggregate mismatch at dim %d", d)
		}
	}
}

func TestRecoverMaskRequiresAllSurvivors(t *testing.T) {
	parties := newParties(t, 4)
	seeds := map[int][]byte{}
	s, err := parties[0].SeedWith(2)
	if err != nil {
		t.Fatal(err)
	}
	seeds[0] = s
	if _, err := RecoverMask(2, 4, 3, 1, seeds); err == nil {
		t.Fatal("recovery with missing seeds accepted")
	}
	if _, err := RecoverMask(9, 4, 3, 1, seeds); err == nil {
		t.Fatal("out-of-range dropped index accepted")
	}
}

func TestShamirRoundTrip(t *testing.T) {
	secret := []byte("the dropped client's X25519 key!")
	shares, err := SplitSecret(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 5 {
		t.Fatalf("got %d shares", len(shares))
	}
	// Any 3 shares reconstruct.
	got, err := CombineShares([]Share{shares[4], shares[0], shares[2]}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("reconstructed %q, want %q", got, secret)
	}
}

func TestShamirThreshold(t *testing.T) {
	secret := []byte("secret")
	shares, err := SplitSecret(secret, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CombineShares(shares[:2], 3); err == nil {
		t.Fatal("combined with fewer than k shares")
	}
	// Two shares give no information: reconstructing with a forged third
	// share must (overwhelmingly) not yield the secret.
	forged := Share{X: shares[2].X, Data: make([]byte, len(shares[2].Data))}
	got, err := CombineShares([]Share{shares[0], shares[1], forged}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, secret) {
		t.Fatal("forged share reconstructed the true secret")
	}
}

func TestShamirValidation(t *testing.T) {
	if _, err := SplitSecret([]byte("s"), 2, 3); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := SplitSecret([]byte("s"), 300, 2); err == nil {
		t.Error("n > 255 accepted")
	}
	if _, err := SplitSecret(nil, 3, 2); err == nil {
		t.Error("empty secret accepted")
	}
	shares, err := SplitSecret([]byte("s"), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dup := []Share{shares[0], shares[0]}
	if _, err := CombineShares(dup, 2); err == nil {
		t.Error("duplicate shares accepted")
	}
	bad := []Share{shares[0], {X: 0, Data: []byte{1}}}
	if _, err := CombineShares(bad, 2); err == nil {
		t.Error("x=0 share accepted")
	}
	mismatched := []Share{shares[0], {X: 9, Data: []byte{1, 2}}}
	if _, err := CombineShares(mismatched, 2); err == nil {
		t.Error("length-mismatched shares accepted")
	}
}

// Property: GF(256) multiplication agrees with the reference shift-and-add
// implementation.
func TestQuickGFMulAgreesWithReference(t *testing.T) {
	f := func(a, b byte) bool {
		return gfMul(a, b) == gfMulNoTable(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: GF(256) inverses are real inverses.
func TestQuickGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		if gfMul(byte(a), gfInv(byte(a))) != 1 {
			t.Fatalf("inv(%d) wrong", a)
		}
	}
}

// Property: Shamir round trips for arbitrary secrets and thresholds.
func TestQuickShamirRoundTrip(t *testing.T) {
	f := func(secret []byte, nRaw, kRaw uint8) bool {
		if len(secret) == 0 {
			secret = []byte{42}
		}
		n := int(nRaw%10) + 2
		k := int(kRaw)%n + 1
		shares, err := SplitSecret(secret, n, k)
		if err != nil {
			return false
		}
		got, err := CombineShares(shares[:k], k)
		return err == nil && bytes.Equal(got, secret)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: blinding then unblinding any vector is the identity.
func TestQuickBlindUnblindIdentity(t *testing.T) {
	f := func(vals []uint64, maskSeed []byte) bool {
		if len(vals) == 0 {
			vals = []uint64{1}
		}
		contribution := make(fixed.Vector, len(vals))
		for i, v := range vals {
			contribution[i] = fixed.Ring(v)
		}
		masks, err := ZeroSumMasks(maskSeed, 1, len(vals))
		if err != nil {
			return false
		}
		blinded, err := Apply(contribution, masks[0])
		if err != nil {
			return false
		}
		back := blinded.Clone()
		back.SubInPlace(masks[0])
		for i := range contribution {
			if back[i] != contribution[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
