package service

import (
	"errors"
	"math/big"
	"slices"
	"testing"

	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

func TestNewValidation(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("", key.Public()); err == nil {
		t.Fatal("empty service name accepted")
	}
}

func TestSetPredicateRejectsUnverifiable(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New("svc", key.Public())
	if err != nil {
		t.Fatal(err)
	}
	leak := &predicate.Program{Name: "leak", Code: []predicate.Instr{
		{Op: predicate.OpLoadP, Arg: 0}, {Op: predicate.OpVerdict},
	}}
	if err := svc.SetPredicate(leak); err == nil {
		t.Fatal("unverifiable predicate accepted by service")
	}
	if _, err := svc.BasePayload(); err == nil {
		t.Fatal("BasePayload without a predicate should fail")
	}
}

// serialPipeline is the strictly serial round (one worker, one shard) the
// policy tests exercise.
func serialPipeline(t *testing.T, name string, verify *xcrypto.VerifyKey, dim int, round uint64, vetted ...tee.Measurement) *Pipeline {
	return testRound(t, TenantConfig{
		Name:    name,
		Verify:  verify,
		Dim:     dim,
		Workers: 1,
		Shards:  1,
		Vetted:  vetted,
	}, round)
}

// signedContribution fabricates a contribution signed by key.
func signedContribution(t *testing.T, key *xcrypto.SigningKey, name string, round uint64, dim int) glimmer.SignedContribution {
	t.Helper()
	sc := glimmer.SignedContribution{
		ServiceName: name,
		Round:       round,
		Measurement: tee.Measurement{1, 2, 3},
		Blinded:     fixed.NewVector(dim),
	}
	sig, err := key.Sign(sc.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	sc.Signature = sig
	return sc
}

func TestPipelinePolicyChecks(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim, round = 4, uint64(2)
	agg := serialPipeline(t, "svc", key.Public(), dim, round, tee.Measurement{1, 2, 3})

	good := signedContribution(t, key, "svc", round, dim)
	if err := add(agg, glimmer.EncodeSignedContribution(good))[0]; err != nil {
		t.Fatalf("valid contribution refused: %v", err)
	}

	cases := []struct {
		name string
		mk   func() glimmer.SignedContribution
		want error
	}{
		{"wrong service", func() glimmer.SignedContribution {
			return signedContribution(t, key, "other", round, dim)
		}, ErrWrongService},
		{"wrong round", func() glimmer.SignedContribution {
			return signedContribution(t, key, "svc", round+1, dim)
		}, ErrWrongRound},
		{"wrong dim", func() glimmer.SignedContribution {
			return signedContribution(t, key, "svc", round, dim+1)
		}, ErrWrongDim},
		{"unvetted measurement", func() glimmer.SignedContribution {
			sc := signedContribution(t, key, "svc", round, dim)
			sc.Measurement = tee.Measurement{9}
			sig, err := key.Sign(sc.SignedBytes())
			if err != nil {
				t.Fatal(err)
			}
			sc.Signature = sig
			return sc
		}, ErrUnknownGlimmer},
		{"forged signature", func() glimmer.SignedContribution {
			sc := signedContribution(t, key, "svc", round, dim)
			sc.Blinded[0] = 99
			return sc
		}, ErrBadSignature},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := add(agg, glimmer.EncodeSignedContribution(c.mk()))[0]; !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
	if agg.Count() != 1 {
		t.Fatalf("count = %d, want 1", agg.Count())
	}
	if agg.Rejected() != len(cases) {
		t.Fatalf("rejected = %d, want %d", agg.Rejected(), len(cases))
	}
	if _, err := agg.Mean(); err != nil {
		t.Fatalf("mean: %v", err)
	}
}

// TestSignedContributionCannotBeReencoded: signed dedup is on the raw bytes,
// so the count is exact only if nobody but the signer can produce a second
// accepted encoding of a contribution they have seen. The byte-identical
// replay is a duplicate; every single-bit flip in the signature field (salt
// and signature alike) and the non-canonical S+L respelling are bad
// signatures; the contribution counts once.
func TestSignedContributionCannotBeReencoded(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim, round = 4, uint64(1)
	agg := serialPipeline(t, "svc", key.Public(), dim, round)
	raw := signedVector(t, key, "svc", round, fixed.Vector{1, 2, 3, 4})
	sc, err := glimmer.DecodeSignedContribution(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Signature) != xcrypto.SignatureSize {
		t.Fatalf("signature is %d bytes, want %d", len(sc.Signature), xcrypto.SignatureSize)
	}
	if err := add(agg, raw)[0]; err != nil {
		t.Fatalf("valid contribution refused: %v", err)
	}
	if err := add(agg, raw)[0]; !errors.Is(err, ErrDuplicate) {
		t.Fatalf("byte-identical replay: err = %v, want ErrDuplicate", err)
	}

	respell := func(sig []byte) []byte {
		forged := sc
		forged.Signature = sig
		return glimmer.EncodeSignedContribution(forged)
	}
	for bit := 0; bit < 8*len(sc.Signature); bit++ {
		sig := slices.Clone(sc.Signature)
		sig[bit/8] ^= 1 << (bit % 8)
		if err := add(agg, respell(sig))[0]; !errors.Is(err, ErrBadSignature) {
			t.Fatalf("signature bit %d flipped: err = %v, want ErrBadSignature", bit, err)
		}
	}
	// S+L names the same scalar mod the group order L; a verifier that
	// reduces S instead of refusing S >= L would count the contribution twice.
	order, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)
	split := xcrypto.SignatureSize - 32
	s := slices.Clone(sc.Signature[split:])
	slices.Reverse(s) // S travels little-endian
	sPlusL := new(big.Int).Add(new(big.Int).SetBytes(s), order).FillBytes(s)
	slices.Reverse(sPlusL)
	sig := append(slices.Clone(sc.Signature[:split]), sPlusL...)
	if err := add(agg, respell(sig))[0]; !errors.Is(err, ErrBadSignature) {
		t.Fatalf("S+L respelling: err = %v, want ErrBadSignature", err)
	}

	if err := agg.Seal(); err != nil {
		t.Fatal(err)
	}
	if agg.Count() != 1 || !slices.Equal(agg.Sum(), sc.Blinded) {
		t.Fatalf("sealed count %d sum %v, want 1 and %v", agg.Count(), agg.Sum(), sc.Blinded)
	}
}

func TestPipelineGarbageAndEmptyMean(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	agg := serialPipeline(t, "svc", key.Public(), 4, 1)
	if err := add(agg, []byte("garbage"))[0]; err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := agg.Mean(); err == nil {
		t.Fatal("mean of nothing accepted")
	}
	if err := agg.CorrectDropout(fixed.NewVector(3)); !errors.Is(err, ErrWrongDim) {
		t.Fatalf("dropout dim err = %v", err)
	}
}

func TestPipelineWithoutAllowlistAcceptsAnyMeasurement(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	agg := serialPipeline(t, "svc", key.Public(), 4, 1)
	sc := signedContribution(t, key, "svc", 1, 4)
	if err := add(agg, glimmer.EncodeSignedContribution(sc))[0]; err != nil {
		t.Fatalf("no-allowlist aggregator refused contribution: %v", err)
	}
}

func TestBotGateChallengeLifecycle(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	gate := NewBotGate("svc", key.Public())
	challenge, err := gate.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	v := glimmer.Verdict{ServiceName: "svc", Challenge: challenge, Human: true}
	sig, err := key.Sign(v.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	v.Signature = sig
	human, err := gate.CheckVerdict(glimmer.EncodeVerdict(v))
	if err != nil || !human {
		t.Fatalf("CheckVerdict = (%v, %v)", human, err)
	}
	// Unknown challenge.
	v2 := v
	v2.Challenge = []byte("never issued")
	sig2, err := key.Sign(v2.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	v2.Signature = sig2
	if _, err := gate.CheckVerdict(glimmer.EncodeVerdict(v2)); !errors.Is(err, ErrUnknownChallenge) {
		t.Fatalf("err = %v, want ErrUnknownChallenge", err)
	}
}

func TestBotGateRejectsWrongKeyAndGarbage(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	gate := NewBotGate("svc", key.Public())
	challenge, err := gate.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	v := glimmer.Verdict{ServiceName: "svc", Challenge: challenge, Human: false}
	sig, err := wrong.Sign(v.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	v.Signature = sig
	if _, err := gate.CheckVerdict(glimmer.EncodeVerdict(v)); !errors.Is(err, ErrVerdictSignature) {
		t.Fatalf("err = %v, want ErrVerdictSignature", err)
	}
	if _, err := gate.CheckVerdict([]byte("garbage")); err == nil {
		t.Fatal("garbage verdict accepted")
	}
}

// TestNewDeviceTrustPath walks the one definition of the trust path: a
// service that cannot provision returns no device; devices it does return
// sign under its key and blind with the masks they were dealt, so the
// blinded sum of a zero-sum cohort is the clear sum; and ProvisionDevice is
// the hosting hook a registry hands the edge for a tenant's remote sessions.
func TestNewDeviceTrustPath(t *testing.T) {
	// Its own trust root: internal/testbed imports service.
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	const dim, round = 4, uint64(3)

	bare, err := New("svc", as.Root())
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := bare.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if dev, err := bare.NewDevice(platform, cfg, nil); err == nil || dev != nil {
		t.Fatalf("NewDevice without a predicate = (%v, %v), want a nil device and an error", dev, err)
	}

	svc, err := New("svc", as.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("unit-range", dim)); err != nil {
		t.Fatal(err)
	}
	if cfg, err = svc.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy); err != nil {
		t.Fatal(err)
	}
	values := []fixed.Vector{fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4}), fixed.FromFloats([]float64{0.9, 0.8, 0.7, 0.6})}
	masks, err := blind.ZeroSumMasks([]byte("trust-path"), len(values), dim)
	if err != nil {
		t.Fatal(err)
	}
	clearSum, blindedSum := fixed.NewVector(dim), fixed.NewVector(dim)
	for i, value := range values {
		dev, err := svc.NewDevice(platform, cfg, map[uint64][]uint64{round: glimmer.VectorToBits(masks[i])})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := dev.Contribute(round, value, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !svc.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature) {
			t.Errorf("device %d signed under a key that is not the service's", i)
		}
		if slices.Equal(sc.Blinded, value) {
			t.Errorf("device %d contributed its clear value: the dealt mask was not installed", i)
		}
		clearSum.AddInPlace(value)
		blindedSum.AddInPlace(sc.Blinded)
	}
	if !slices.Equal(blindedSum, clearSum) {
		t.Errorf("blinded sum %v, want the clear sum %v", blindedSum, clearSum)
	}

	hostCfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	if _, err := reg.AddTenant(TenantConfig{Name: "svc", Dim: dim, Glimmer: hostCfg, Provision: svc.ProvisionDevice}); err != nil {
		t.Fatal(err)
	}
	resolved, provision, err := reg.ResolveHost("svc")
	if err != nil {
		t.Fatal(err)
	}
	load := func() *glimmer.Device {
		dev, err := glimmer.NewDevice(platform, resolved)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	if err := provision(load()); err == nil {
		t.Error("the hook provisioned an enclave whose measurement was never vetted")
	}
	hosted := load()
	svc.Vet(hosted.Measurement())
	if err := provision(hosted); err != nil {
		t.Fatalf("hosting hook: %v", err)
	}
	sc, err := hosted.Contribute(round, values[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature) {
		t.Error("hosted device signed under a key that is not the service's")
	}
}
