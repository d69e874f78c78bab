package glimmer_test

import (
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// dealerWorld provisions a cohort of n glimmers wired to an enclave-hosted
// dealer, all on one platform (the dealer "on one of the clients", §3).
func dealerWorld(t *testing.T, n int) (*tee.AttestationService, *service.Service, *glimmer.DealerHost, []*glimmer.Device) {
	t.Helper()
	as, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	glimmerMeasurement := glimmer.BuildBinary(cfg).Measurement()
	rootDER, err := as.Root().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dealer, err := glimmer.NewDealerHost(platform, glimmer.DealerConfig{
		ServiceName:     svc.Name(),
		AttestationRoot: rootDER,
		AllowedClient:   glimmerMeasurement,
	})
	if err != nil {
		t.Fatal(err)
	}

	devices := make([]*glimmer.Device, n)
	base, err := svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	dm := dealer.Measurement()
	for i := range devices {
		dev, err := glimmer.NewDevice(platform, cfg)
		if err != nil {
			t.Fatal(err)
		}
		svc.Vet(dev.Measurement())
		payload := base
		payload.DealerMeasurement = dm[:]
		payload.AttestationRoot = rootDER
		if err := svc.Provision(dev, payload); err != nil {
			t.Fatal(err)
		}
		devices[i] = dev
	}
	return as, svc, dealer, devices
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
	_, svc, dealer, devices := dealerWorld(t, n)
	enrollCohort(t, dealer, devices)

	records, err := dealer.Distribute(dim, round)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != n {
		t.Fatalf("records = %d, want %d", len(records), n)
	}
	for i, dev := range devices {
		if err := dev.InstallMask(records[uint32(i)]); err != nil {
			t.Fatalf("device %d install mask: %v", i, err)
		}
	}

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
	as, svc, _, devices := dealerWorld(t, 1)
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
	_, _, dealer, devices := dealerWorld(t, 2)
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
	_, _, dealer, devices := dealerWorld(t, 2)
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
	_, _, dealer, devices := dealerWorld(t, 2)
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
