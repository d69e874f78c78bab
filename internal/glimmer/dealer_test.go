package glimmer_test

import (
	"slices"
	"testing"

	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// dealerWorld provisions a cohort of n glimmers wired to an enclave-hosted
// dealer the service vouches for, all on one platform (the dealer "on one
// of the clients", §3). A non-empty seed makes the dealing reproducible.
func dealerWorld(t *testing.T, n int, seed []byte) (*tee.AttestationService, *service.Service, *glimmer.DealerHost, []*glimmer.Device) {
	t.Helper()
	as, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	rootDER, err := as.Root().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dealer, err := glimmer.NewDealerHost(platform, glimmer.DealerConfig{
		ServiceName:     svc.Name(),
		AttestationRoot: rootDER,
		AllowedClient:   glimmer.BuildBinary(cfg).Measurement(),
		Seed:            seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dealer.Destroy)
	svc.VouchDealer(dealer.Measurement())
	devices := make([]*glimmer.Device, n)
	for i := range devices {
		if devices[i], err = svc.NewDevice(platform, cfg); err != nil {
			t.Fatal(err)
		}
	}
	return as, svc, dealer, devices
}

// dealtCohort is dealerWorld with the cohort enrolled and each of rounds
// dealt and installed.
func dealtCohort(t *testing.T, n int, rounds ...uint64) (*service.Service, *glimmer.DealerHost, []*glimmer.Device) {
	t.Helper()
	_, svc, dealer, devices := dealerWorld(t, n, nil)
	enrollCohort(t, dealer, devices)
	for _, round := range rounds {
		dealRound(t, dealer, devices, round)
	}
	return svc, dealer, devices
}

// dealRound deals one round and relays each record to its device.
func dealRound(t *testing.T, dealer *glimmer.DealerHost, devices []*glimmer.Device, round uint64) {
	t.Helper()
	records, err := dealer.Distribute(dim, round)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(devices) {
		t.Fatalf("records = %d, want %d", len(records), len(devices))
	}
	for i, dev := range devices {
		if err := dev.InstallMask(records[uint32(i)]); err != nil {
			t.Fatalf("device %d install mask: %v", i, err)
		}
	}
}

func enrollCohort(t *testing.T, dealer *glimmer.DealerHost, devices []*glimmer.Device) {
	t.Helper()
	for i, dev := range devices {
		hello, err := dev.DealerHello()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := dealer.Enroll(uint32(i), hello)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.DealerComplete(resp); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDealerEnclaveEndToEnd(t *testing.T) {
	const n = 4
	const round = uint64(9)
	svc, _, devices := dealtCohort(t, n, round)

	// The cohort contributes; the dealt masks cancel exactly.
	agg := newSerialPipeline(t, svc, dim, round)
	trueSum := fixed.NewVector(dim)
	prg := xcrypto.NewPRG([]byte("dealer-cohort"))
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
		// Blinded output must differ from the raw contribution.
		same := true
		for d := range c {
			if sc.Blinded[d] != c[d] {
				same = false
			}
		}
		if same {
			t.Fatal("dealer-dealt mask did not blind the contribution")
		}
		if err := agg.Add(glimmer.EncodeSignedContribution(sc)); err != nil {
			t.Fatal(err)
		}
	}
	got := agg.Sum()
	for d := range trueSum {
		if got[d] != trueSum[d] {
			t.Fatalf("dealt-mask aggregate mismatch at dim %d", d)
		}
	}
}

func TestDealerRefusesUnvettedClient(t *testing.T) {
	// A non-Glimmer enclave (different measurement) cannot enroll.
	as, platform, svc := newWorld(t)
	rootDER, err := as.Root().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dealer, err := glimmer.NewDealerHost(platform, glimmer.DealerConfig{
		ServiceName:     svc.Name(),
		AttestationRoot: rootDER,
		AllowedClient:   tee.Measurement{0xAA}, // not the imposter's measurement
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := imposter.DealerHello()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dealer.Enroll(0, hello); err == nil {
		t.Fatal("dealer enrolled an unvetted enclave")
	}
}

func TestGlimmerRefusesImposterDealer(t *testing.T) {
	// The glimmer only completes with the dealer measurement the service
	// vouched for: an imposter dealer with the same service name (hence
	// same handshake context) but a different cohort label measures
	// differently and is refused at DealerComplete.
	as, svc, _, devices := dealerWorld(t, 1, nil)
	dev := devices[0]
	platform2, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	rootDER, err := as.Root().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := glimmer.NewDealerHost(platform2, glimmer.DealerConfig{
		ServiceName:     svc.Name(),
		Cohort:          "rogue-cohort",
		AttestationRoot: rootDER,
		AllowedClient:   dev.Measurement(),
	})
	if err != nil {
		t.Fatal(err)
	}
	hello, err := dev.DealerHello()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := imposter.Enroll(0, hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.DealerComplete(resp); err == nil {
		t.Fatal("glimmer completed with a dealer the service never vouched for")
	}
}

func TestInstallMaskRejectsTamperedRecord(t *testing.T) {
	_, _, dealer, devices := dealerWorld(t, 2, nil)
	enrollCohort(t, dealer, devices)
	records, err := dealer.Distribute(dim, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), records[0]...)
	bad[len(bad)-1] ^= 1
	if err := devices[0].InstallMask(bad); err == nil {
		t.Fatal("tampered mask record installed")
	}
	// The host cannot cross-deliver records either (sessions differ).
	if err := devices[0].InstallMask(records[1]); err == nil {
		t.Fatal("record for another client installed")
	}
}

func TestDealerRejectsDuplicateIndex(t *testing.T) {
	_, _, dealer, devices := dealerWorld(t, 2, nil)
	hello0, err := devices[0].DealerHello()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dealer.Enroll(0, hello0); err != nil {
		t.Fatal(err)
	}
	hello1, err := devices[1].DealerHello()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dealer.Enroll(0, hello1); err == nil {
		t.Fatal("duplicate cohort index accepted")
	}
}

func TestDistributeRequiresContiguousCohort(t *testing.T) {
	_, _, dealer, devices := dealerWorld(t, 2, nil)
	hello, err := devices[0].DealerHello()
	if err != nil {
		t.Fatal(err)
	}
	// Enroll only index 1: distribution must refuse the gap at 0.
	if _, err := dealer.Enroll(1, hello); err != nil {
		t.Fatal(err)
	}
	if _, err := dealer.Distribute(dim, 1); err == nil {
		t.Fatal("distribution with a cohort gap succeeded")
	}
}

func TestDealerRevealSumsAbsentMasks(t *testing.T) {
	const n = 4
	svc, dealer, devices := dealtCohort(t, n, 3, 4)

	// Devices 0 and 1 contribute to round 3; 2 and 3 never do. The dealer's
	// reveal over the absent pair is exactly what makes the sum exact.
	agg := newSerialPipeline(t, svc, dim, 3)
	trueSum := fixed.NewVector(dim)
	for _, dev := range devices[:2] {
		agg.Vet(dev.Measurement())
		c := fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4})
		trueSum.AddInPlace(c)
		sc, err := dev.Contribute(3, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(glimmer.EncodeSignedContribution(sc)); err != nil {
			t.Fatal(err)
		}
	}
	absent, err := dealer.Reveal(3, []uint32{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := agg.CorrectDropout(absent); err != nil {
		t.Fatal(err)
	}
	if got := agg.Sum(); !slices.Equal(got, trueSum) {
		t.Fatalf("corrected sum %v, want %v", got, trueSum)
	}

	if _, err := dealer.Reveal(3, []uint32{0}); err == nil {
		t.Error("a round was revealed twice")
	}
	if _, err := dealer.Reveal(99, []uint32{0}); err == nil {
		t.Error("a round that was never dealt was revealed")
	}
	if _, err := dealer.Reveal(4, []uint32{n}); err == nil {
		t.Error("an out-of-range index was revealed")
	}
	if _, err := dealer.Reveal(4, []uint32{1, 1}); err == nil {
		t.Error("a repeated index was revealed")
	}
	// A refused request does not use up the round's one answer.
	if _, err := dealer.Reveal(4, []uint32{1}); err != nil {
		t.Errorf("reveal after refused requests: %v", err)
	}
	if _, err := dealer.Distribute(dim, 3); err == nil {
		t.Error("a round was dealt twice")
	}
}

func TestSeededDealerDealsFromItsSeed(t *testing.T) {
	const n = 3
	seed := []byte("sim/dealer.example/7")
	_, _, dealer, devices := dealerWorld(t, n, seed)
	enrollCohort(t, dealer, devices)
	dealRound(t, dealer, devices, 5)
	want, err := blind.ZeroSumMasks([]byte("sim/dealer.example/7/masks/5"), n, dim)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dealer.Reveal(5, []uint32{1})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want[1]) {
		t.Fatalf("seeded dealer dealt %v, want %v", got, want[1])
	}

	// The seed is measured: a seeded dealer is never the unseeded one.
	_, _, unseeded, _ := dealerWorld(t, 0, nil)
	_, _, reseeded, _ := dealerWorld(t, 0, []byte("sim/dealer.example/8"))
	if dealer.Measurement() == unseeded.Measurement() || dealer.Measurement() == reseeded.Measurement() {
		t.Error("the dealer's seed does not change its measurement")
	}
}

func TestDealerModeNeedsAVouchedDealer(t *testing.T) {
	as, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	if dev, err := svc.NewDevice(platform, cfg); err == nil || dev != nil {
		t.Fatalf("dealer-mode device provisioned with no dealer vouched for: (%v, %v)", dev, err)
	}
	dev, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	base.DealerMeasurement = make([]byte, 32)
	if err := svc.Provision(dev, base); err == nil {
		t.Error("dealer measurement without an attestation root accepted")
	}
	if base.AttestationRoot, err = as.Root().Marshal(); err != nil {
		t.Fatal(err)
	}
	base.DealerMeasurement = base.DealerMeasurement[:31]
	if err := svc.Provision(dev, base); err == nil {
		t.Error("31-byte dealer measurement accepted")
	}
}
