package glimmer_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"glimmers/internal/audit"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/testbed"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

const dim = 4

// serialPipeline is the strictly serial aggregation baseline (one worker,
// one shard) these tests collect into: one round of the service as the only
// tenant of a fresh registry, fed through the registry as a transport
// feeds it.
type serialPipeline struct {
	*service.Pipeline
	reg    *service.Registry
	rounds *service.RoundManager
}

func newSerialPipeline(t *testing.T, svc *service.Service, dim int, round uint64) serialPipeline {
	t.Helper()
	reg := service.NewRegistry(0)
	tenant, err := reg.AddTenant(service.TenantConfig{
		Name:    svc.Name(),
		Verify:  svc.ContributionVerifyKey(),
		Dim:     dim,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := tenant.Manager()
	return serialPipeline{Pipeline: m.Round(round), reg: reg, rounds: m}
}

func (p serialPipeline) Add(raw []byte) error     { return p.reg.Ingest(raw) }
func (p serialPipeline) Vet(meas tee.Measurement) { p.rounds.Vet(meas) }

func newWorld(t *testing.T) (*tee.AttestationService, *tee.Platform, *service.Service) {
	t.Helper()
	sub, err := testbed.New()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := sub.Service("nextwordpredictive.com", predicate.UnitRangeCheck("weights-in-unit-range", dim))
	if err != nil {
		t.Fatal(err)
	}
	return sub.AS, sub.Platform, svc
}

func provisionedDevice(t *testing.T, platform *tee.Platform, svc *service.Service, mode glimmer.Mode) *glimmer.Device {
	t.Helper()
	cfg, err := svc.GlimmerConfig(dim, mode, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := svc.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestSingleEnclaveLifecycle(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)

	honest := fixed.FromFloats([]float64{0.1, 0.9, 0.5, 0.0})
	sc, err := dev.Contribute(1, honest, nil)
	if err != nil {
		t.Fatalf("honest contribution refused: %v", err)
	}
	if sc.ServiceName != svc.Name() || sc.Round != 1 {
		t.Fatalf("metadata: %+v", sc)
	}
	if sc.Measurement != dev.Measurement() {
		t.Fatal("contribution does not carry the glimmer measurement")
	}
	// ModeNone: payload is the raw validated contribution.
	for i := range honest {
		if sc.Blinded[i] != honest[i] {
			t.Fatal("ModeNone altered the contribution")
		}
	}
	if !svc.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature) {
		t.Fatal("service cannot verify the glimmer signature")
	}
}

func TestGlimmerBlocksThe538Attack(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)

	malicious := fixed.FromFloats([]float64{0.1, 538, 0.5, 0.0})
	_, err := dev.Contribute(1, malicious, nil)
	if !errors.Is(err, glimmer.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// The refusal is generic: it must not leak which element failed.
	if err.Error() != glimmer.ErrRejected.Error() {
		t.Fatalf("refusal leaks detail: %q", err)
	}
}

func TestContributeRequiresProvisioning(t *testing.T) {
	_, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = dev.Contribute(1, fixed.NewVector(dim), nil)
	if !errors.Is(err, glimmer.ErrNotProvisioned) {
		t.Fatalf("err = %v, want ErrNotProvisioned", err)
	}
}

func TestContributeRejectsWrongDimension(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	_, err := dev.Contribute(1, fixed.NewVector(dim+1), nil)
	if !errors.Is(err, glimmer.ErrBadRequest) {
		t.Fatalf("err = %v, want ErrBadRequest", err)
	}
}

func TestServiceRefusesUnvettedGlimmer(t *testing.T) {
	_, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Vet a *different* measurement; this device stays unvetted.
	svc.Vet(tee.Measurement{0xAA})
	payload, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Provision(dev, payload); !errors.Is(err, tee.ErrQuoteMeasurement) {
		t.Fatalf("err = %v, want ErrQuoteMeasurement", err)
	}
}

func TestGlimmerRefusesImposterService(t *testing.T) {
	// The Glimmer's config embeds the real service key; an imposter with
	// the attestation root but a different identity cannot complete the
	// handshake.
	as, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := service.New(svc.Name(), as.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := imposter.SetPredicate(predicate.UnitRangeCheck("p", dim)); err != nil {
		t.Fatal(err)
	}
	imposter.Vet(dev.Measurement())
	payload, err := imposter.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := imposter.Provision(dev, payload); err == nil {
		t.Fatal("imposter service provisioned the glimmer")
	}
}

func TestGlimmerRefusesPolicyViolatingPredicate(t *testing.T) {
	_, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Vet(dev.Measurement())
	// A predicate with two declassification sites violates the measured
	// policy (MaxDeclassSites = 1).
	leaky := predicate.NewBuilder("leaky", 0).
		LoadC(0).Declass().Pop().
		LoadC(1).Declass().Verdict().
		MustBuild()
	if _, err := predicate.Verify(leaky); err != nil {
		t.Fatalf("test predicate should verify: %v", err)
	}
	payload, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	payload.Predicate = predicate.Encode(leaky)
	err = svc.Provision(dev, payload)
	if err == nil || !errors.Is(unwrapECall(err), glimmer.ErrPolicy) {
		t.Fatalf("err = %v, want ErrPolicy", err)
	}
}

// unwrapECall digs the glimmer error out of service wrapping.
func unwrapECall(err error) error { return err }

func TestHostCannotTamperWithSignedContribution(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	sc, err := dev.Contribute(3, fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4}), nil)
	if err != nil {
		t.Fatal(err)
	}
	agg := newSerialPipeline(t, svc, dim, 3)
	agg.Vet(dev.Measurement())

	// Host flips one blinded element before forwarding.
	tampered := sc
	tampered.Blinded = sc.Blinded.Clone()
	tampered.Blinded[0]++
	if err := agg.Add(glimmer.EncodeSignedContribution(tampered)); !errors.Is(err, service.ErrBadSignature) {
		t.Fatalf("tampered value: err = %v, want ErrBadSignature", err)
	}
	// Host rewrites the round.
	tampered = sc
	tampered.Round = 4
	err = agg.Add(glimmer.EncodeSignedContribution(tampered))
	if !errors.Is(err, service.ErrWrongRound) && !errors.Is(err, service.ErrBadSignature) {
		t.Fatalf("tampered round: err = %v", err)
	}
	// The genuine message still lands.
	if err := agg.Add(glimmer.EncodeSignedContribution(sc)); err != nil {
		t.Fatalf("genuine contribution refused: %v", err)
	}
	// And replaying it is refused.
	if err := agg.Add(glimmer.EncodeSignedContribution(sc)); !errors.Is(err, service.ErrDuplicate) {
		t.Fatalf("replay: err = %v, want ErrDuplicate", err)
	}
}

func TestDealerModeCohortAggregation(t *testing.T) {
	// Figure 1c with Glimmers: N devices, dealer masks, exact aggregate,
	// individual blinded values useless to the service.
	const n = 5
	const round = uint64(7)
	svc, _, devices := dealtCohort(t, n, round)

	contributions := make([]fixed.Vector, n)
	trueSum := fixed.NewVector(dim)
	agg := newSerialPipeline(t, svc, dim, round)
	prg := xcrypto.NewPRG([]byte("cohort"))
	for i, dev := range devices {
		agg.Vet(dev.Measurement())
		c := fixed.NewVector(dim)
		for d := range c {
			c[d] = fixed.FromFloat(prg.Float64())
		}
		contributions[i] = c
		trueSum.AddInPlace(c)
		sc, err := dev.Contribute(round, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Blinded must differ from the raw contribution.
		same := true
		for d := range c {
			if sc.Blinded[d] != c[d] {
				same = false
			}
		}
		if same {
			t.Fatal("dealer mode did not blind the contribution")
		}
		if err := agg.Add(glimmer.EncodeSignedContribution(sc)); err != nil {
			t.Fatal(err)
		}
	}
	got := agg.Sum()
	for d := range trueSum {
		if got[d] != trueSum[d] {
			t.Fatalf("aggregate mismatch at dim %d", d)
		}
	}
}

func TestDealerMaskIsSingleUse(t *testing.T) {
	const round = uint64(1)
	_, _, devices := dealtCohort(t, 2, round)
	dev := devices[0]
	c := fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4})
	if _, err := dev.Contribute(round, c, nil); err != nil {
		t.Fatal(err)
	}
	// Submitting again for the same round would reuse the mask; the
	// glimmer refuses.
	if _, err := dev.Contribute(round, c, nil); !errors.Is(err, glimmer.ErrNotProvisioned) {
		t.Fatalf("mask reuse: err = %v, want ErrNotProvisioned", err)
	}
}

func TestPairwiseModeCohortAggregation(t *testing.T) {
	const n = 4
	const round = uint64(3)
	_, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModePairwise, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	// Load devices and gather the enclave-held pairwise keys.
	devices := make([]*glimmer.Device, n)
	roster := make([][]byte, n)
	for i := range devices {
		dev, err := glimmer.NewDevice(platform, cfg)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = dev
		svc.Vet(dev.Measurement())
		pub, err := dev.PairwisePub()
		if err != nil {
			t.Fatal(err)
		}
		roster[i] = pub
	}
	base, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	for i, dev := range devices {
		payload := base
		payload.PartyIndex = uint32(i)
		payload.Roster = roster
		if err := svc.Provision(dev, payload); err != nil {
			t.Fatal(err)
		}
	}

	agg := newSerialPipeline(t, svc, dim, round)
	trueSum := fixed.NewVector(dim)
	prg := xcrypto.NewPRG([]byte("pairwise"))
	for _, dev := range devices {
		agg.Vet(dev.Measurement())
		c := fixed.NewVector(dim)
		for d := range c {
			c[d] = fixed.FromFloat(prg.Float64())
		}
		trueSum.AddInPlace(c)
		sc, err := dev.Contribute(round, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(glimmer.EncodeSignedContribution(sc)); err != nil {
			t.Fatal(err)
		}
	}
	got := agg.Sum()
	for d := range trueSum {
		if got[d] != trueSum[d] {
			t.Fatalf("pairwise aggregate mismatch at dim %d", d)
		}
	}
}

func TestCrossCheckCorroboration(t *testing.T) {
	// §3's invasive validation: the predicate compares the claimed
	// contribution against private context (keyboard corroboration data).
	_, platform, svc := newWorld(t)
	if err := svc.SetPredicate(predicate.CrossCheck("corroborate", dim, 2)); err != nil {
		t.Fatal(err)
	}
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	claimed := fixed.FromFloats([]float64{0.5, 0.25, 0.25, 0.0})
	observed := make([]int64, dim)
	for i, r := range claimed {
		observed[i] = int64(r)
	}
	if _, err := dev.Contribute(1, claimed, observed); err != nil {
		t.Fatalf("corroborated contribution refused: %v", err)
	}
	// Fabricated claim far from observed behaviour is refused.
	fabricated := fixed.FromFloats([]float64{0.9, 0.05, 0.05, 0.0})
	if _, err := dev.Contribute(2, fabricated, observed); !errors.Is(err, glimmer.ErrRejected) {
		t.Fatalf("fabricated claim: err = %v, want ErrRejected", err)
	}
}

// TestIdenticalContributionsFromTwoDevices: every Glimmer of a tenant signs
// with the one provisioned key and a signed contribution names no device,
// so it is the signature's salt alone that keeps two honest devices with
// the same vector from looking like one device replaying itself.
func TestIdenticalContributionsFromTwoDevices(t *testing.T) {
	_, platform, svc := newWorld(t)
	const round = 1
	agg := newSerialPipeline(t, svc, dim, round)
	value := fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4})
	var raws [2][]byte
	for i := range raws {
		dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
		sc, err := dev.Contribute(round, value, nil)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = glimmer.EncodeSignedContribution(sc)
		if err := agg.Add(raws[i]); err != nil {
			t.Fatalf("device %d refused: %v", i, err)
		}
	}
	if bytes.Equal(raws[0], raws[1]) {
		t.Fatal("two devices produced the identical encoding")
	}
	twice := fixed.NewVector(dim)
	twice.AddInPlace(value)
	twice.AddInPlace(value)
	if agg.Count() != 2 || !slices.Equal(agg.Sum(), twice) {
		t.Fatalf("count %d sum %v, want 2 and %v", agg.Count(), agg.Sum(), twice)
	}
}

func TestDetectFlowWithBotGate(t *testing.T) {
	_, platform, svc := newWorld(t)
	// Detector: score = 2*s0 + 3*s1 >= 10.
	if err := svc.SetPredicate(predicate.ThresholdScore("bot-detector", []int64{2, 3}, 10)); err != nil {
		t.Fatal(err)
	}
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	gate := service.NewBotGate(svc.Name(), svc.ContributionVerifyKey())

	challenge, err := gate.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := dev.Detect(challenge, []int64{2, 2}) // score 10 -> human
	if err != nil {
		t.Fatal(err)
	}
	human, err := gate.CheckVerdict(glimmer.EncodeVerdict(verdict))
	if err != nil {
		t.Fatal(err)
	}
	if !human {
		t.Fatal("human signals classified as bot")
	}
	// Challenge is consumed; replay refused.
	if _, err := gate.CheckVerdict(glimmer.EncodeVerdict(verdict)); !errors.Is(err, service.ErrUnknownChallenge) {
		t.Fatalf("replay: err = %v, want ErrUnknownChallenge", err)
	}

	// Bot signals produce the other bit.
	challenge2, err := gate.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	verdict2, err := dev.Detect(challenge2, []int64{0, 1}) // score 3 -> bot
	if err != nil {
		t.Fatal(err)
	}
	human2, err := gate.CheckVerdict(glimmer.EncodeVerdict(verdict2))
	if err != nil {
		t.Fatal(err)
	}
	if human2 {
		t.Fatal("bot signals classified as human")
	}

	// The auditor's residual channel is the scheme's fixed signature size
	// on every verdict, whichever bit it carries.
	format := audit.VerdictFormat(svc.Name())
	for _, v := range []glimmer.Verdict{verdict, verdict2} {
		rep, err := format.Check(glimmer.EncodeVerdict(v), map[string][]byte{"challenge": v.Challenge})
		if err != nil {
			t.Fatal(err)
		}
		if rep.InfoBits != 1 || rep.SignatureBytes != xcrypto.SignatureSize {
			t.Fatalf("audit report = %+v, want 1 bit and %d signature bytes", rep, xcrypto.SignatureSize)
		}
	}
}

func TestDetectVerdictTamperingCaught(t *testing.T) {
	_, platform, svc := newWorld(t)
	if err := svc.SetPredicate(predicate.ThresholdScore("d", []int64{1}, 1)); err != nil {
		t.Fatal(err)
	}
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	gate := service.NewBotGate(svc.Name(), svc.ContributionVerifyKey())
	challenge, err := gate.NewChallenge()
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := dev.Detect(challenge, []int64{0}) // bot
	if err != nil {
		t.Fatal(err)
	}
	// A bot flips its verdict bit in transit.
	forged := verdict
	forged.Human = true
	if _, err := gate.CheckVerdict(glimmer.EncodeVerdict(forged)); !errors.Is(err, service.ErrVerdictSignature) {
		t.Fatalf("forged bit: err = %v, want ErrVerdictSignature", err)
	}
}

func TestDecomposedPipeline(t *testing.T) {
	as, platform, svc := newWorld(t)
	vendor, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	// A cohort of two decomposed Glimmers: their blinders share the one
	// measurement the dealer deals to.
	var cohort []*glimmer.DecomposedDevice
	for range 2 {
		d, err := glimmer.NewDecomposedDevice(platform, cfg, vendor.Public())
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*glimmer.Component{d.Validator(), d.Blinder(), d.Signer()} {
			svc.Vet(c.Measurement())
		}
		cohort = append(cohort, d)
	}
	rootDER, err := as.Root().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dealer, err := glimmer.NewDealerHost(platform, glimmer.DealerConfig{
		ServiceName:     svc.Name(),
		AttestationRoot: rootDER,
		AllowedClient:   cohort[0].Blinder().Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dealer.Destroy()
	svc.VouchDealer(dealer.Measurement())
	base, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	// Each component installs only its own material: the validator the
	// predicate, the blinder the dealer's identity, the signer the key.
	for i, d := range cohort {
		valPayload := glimmer.ProvisionPayload{SigningKey: base.SigningKey, Predicate: base.Predicate}
		if err := svc.Provision(d.Validator(), valPayload); err != nil {
			t.Fatalf("provision validator: %v", err)
		}
		blindPayload := glimmer.ProvisionPayload{
			SigningKey:        base.SigningKey,
			Predicate:         base.Predicate,
			DealerMeasurement: base.DealerMeasurement,
			AttestationRoot:   base.AttestationRoot,
		}
		if err := svc.Provision(d.Blinder(), blindPayload); err != nil {
			t.Fatalf("provision blinder: %v", err)
		}
		if err := svc.Provision(d.Signer(), base); err != nil {
			t.Fatalf("provision signer: %v", err)
		}
		blinder := d.Blinder().Enclave()
		hello, err := blinder.Call("dealer-hello", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dealer.Enroll(uint32(i), hello)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := blinder.Call("dealer-complete", wire.NewWriter().Bytes(resp).Finish()); err != nil {
			t.Fatal(err)
		}
	}
	records, err := dealer.Distribute(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range cohort {
		if _, err := d.Blinder().Enclave().Call("install-mask", records[uint32(i)]); err != nil {
			t.Fatal(err)
		}
	}
	mask, err := dealer.Reveal(1, []uint32{0})
	if err != nil {
		t.Fatal(err)
	}
	dev := cohort[0]

	honest := fixed.FromFloats([]float64{0.2, 0.4, 0.6, 0.8})
	sc, err := dev.Contribute(1, honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature) {
		t.Fatal("decomposed contribution signature invalid")
	}
	if sc.Measurement != dev.Signer().Measurement() {
		t.Fatal("contribution should carry the signer measurement")
	}
	// Unmasking recovers the contribution exactly.
	unmasked := sc.Blinded.Clone()
	unmasked.SubInPlace(mask)
	for d := range honest {
		if unmasked[d] != honest[d] {
			t.Fatal("decomposed blinding corrupted the contribution")
		}
	}
	// The 538 attack dies at the validator; nothing reaches the signer.
	if _, err := dev.Contribute(1, fixed.FromFloats([]float64{538, 0, 0, 0}), nil); !errors.Is(err, glimmer.ErrRejected) {
		t.Fatalf("538 through decomposed pipeline: %v", err)
	}
}

func TestDecomposedHostTamperingBetweenComponents(t *testing.T) {
	_, platform, svc := newWorld(t)
	vendor, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := glimmer.NewDecomposedDevice(platform, cfg, vendor.Public())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*glimmer.Component{dev.Validator(), dev.Blinder(), dev.Signer()} {
		svc.Vet(c.Measurement())
	}
	base, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Provision(dev.Validator(), base); err != nil {
		t.Fatal(err)
	}
	if err := svc.Provision(dev.Blinder(), base); err != nil {
		t.Fatal(err)
	}
	if err := svc.Provision(dev.Signer(), base); err != nil {
		t.Fatal(err)
	}

	req := glimmer.ContributionRequest{
		Round:        1,
		Contribution: glimmer.VectorToBits(fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4})),
	}
	validated, err := dev.Validator().Enclave().Call("validate", glimmer.EncodeContribution(req))
	if err != nil {
		t.Fatal(err)
	}
	// Host flips a byte of the validator→blinder record: the blinder must
	// refuse it.
	tampered := append([]byte(nil), validated...)
	tampered[len(tampered)-1] ^= 1
	if _, err := dev.Blinder().Enclave().Call("blind", tampered); err == nil {
		t.Fatal("blinder accepted a tampered record")
	}
	// A record cannot skip the blinder and go straight to the signer: the
	// signer shares no channel with the validator.
	if _, err := dev.Signer().Enclave().Call("sign", validated); err == nil {
		t.Fatal("signer accepted a validator record directly")
	}
}

func TestDecomposedRejectsForeignVendor(t *testing.T) {
	// Components signed by different vendors must refuse to link.
	_, platform, svc := newWorld(t)
	vendorA, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	vendorB, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	validator, err := platform.Load(glimmer.BuildComponentBinary(cfg, glimmer.RoleValidator, vendorA.Public()))
	if err != nil {
		t.Fatal(err)
	}
	blinder, err := platform.Load(glimmer.BuildComponentBinary(cfg, glimmer.RoleBlinder, vendorB.Public()))
	if err != nil {
		t.Fatal(err)
	}
	offer, err := validator.Call("link-init", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blinder.Call("link-accept", offer); err == nil {
		t.Fatal("cross-vendor link accepted")
	}
}

func TestDecomposedCostsMoreTransitions(t *testing.T) {
	// E6's shape: one contribution costs 1 ECALL on the single enclave,
	// 3 on the decomposed pipeline.
	_, platform, svc := newWorld(t)
	single := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	vendor, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	decomposed, err := glimmer.NewDecomposedDevice(platform, cfg, vendor.Public())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*glimmer.Component{decomposed.Validator(), decomposed.Blinder(), decomposed.Signer()} {
		svc.Vet(c.Measurement())
	}
	base, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*glimmer.Component{decomposed.Validator(), decomposed.Blinder(), decomposed.Signer()} {
		if err := svc.Provision(c, base); err != nil {
			t.Fatal(err)
		}
	}

	c := fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4})
	singleBefore := single.Stats().ECalls
	if _, err := single.Contribute(1, c, nil); err != nil {
		t.Fatal(err)
	}
	singleCost := single.Stats().ECalls - singleBefore

	decompBefore := decomposed.Stats().ECalls
	if _, err := decomposed.Contribute(1, c, nil); err != nil {
		t.Fatal(err)
	}
	decompCost := decomposed.Stats().ECalls - decompBefore

	if singleCost != 1 {
		t.Errorf("single-enclave contribution cost %d ECALLs, want 1", singleCost)
	}
	if decompCost != 3 {
		t.Errorf("decomposed contribution cost %d ECALLs, want 3", decompCost)
	}
}

func TestProvisionRecordCannotBeReplayed(t *testing.T) {
	// The session's sequence numbers make the provisioning record one-shot:
	// a host replaying it to re-trigger installation fails.
	_, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.Vet(dev.Measurement())
	payload, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Provision(dev, payload); err != nil {
		t.Fatal(err)
	}
	// A fresh provisioning record from scratch would need a new handshake;
	// replaying arbitrary bytes into the provision ECALL must fail cleanly.
	if _, err := dev.Provision(bytes.Repeat([]byte{7}, 64)); err == nil {
		t.Fatal("garbage provisioning record accepted")
	}
}

func TestRejectionCounterAdvances(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	bad := fixed.FromFloats([]float64{538, 0, 0, 0})
	for i := 0; i < 3; i++ {
		_, _ = dev.Contribute(uint64(i), bad, nil)
	}
	// The rejection counter is platform state; its existence is observable
	// through monotonic counters surviving enclave destruction. We can at
	// least confirm contribute still works after rejections.
	good := fixed.FromFloats([]float64{0.1, 0.1, 0.1, 0.1})
	if _, err := dev.Contribute(9, good, nil); err != nil {
		t.Fatalf("glimmer wedged after rejections: %v", err)
	}
}
