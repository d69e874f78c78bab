package glimmers_test

import (
	"errors"
	"testing"

	"glimmers"
	"glimmers/internal/glimmer"
	"glimmers/internal/testbed"
)

// serialTenant hosts the testbed's service as the only tenant of a fresh
// registry, strictly serial (one worker, one shard): the aggregation
// baseline the facade tests collect into.
func serialTenant(t *testing.T, tb *glimmers.Testbed, dim int) (*glimmers.Registry, *glimmers.RoundManager) {
	t.Helper()
	reg := glimmers.NewRegistry(0)
	tenant, err := reg.AddTenant(glimmers.TenantConfig{
		Name:    tb.Service.Name(),
		Verify:  tb.Service.ContributionVerifyKey(),
		Dim:     dim,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg, tenant.Manager()
}

// TestFacadeQuickstart exercises the public API the way the quickstart
// example does: testbed, provisioned device, contribute, verify, aggregate.
func TestFacadeQuickstart(t *testing.T) {
	const dim = 4
	tb, err := glimmers.NewTestbed("facade.example", glimmers.UnitRangeCheck("range", dim))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := tb.NewProvisionedDevice(dim, glimmers.ModeNone)
	if err != nil {
		t.Fatal(err)
	}
	honest := glimmers.FromFloats([]float64{0.1, 0.9, 0.5, 0.0})
	sc, err := dev.Contribute(1, honest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Service.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature) {
		t.Fatal("signature invalid through facade")
	}
	reg, rounds := serialTenant(t, tb, dim)
	rounds.Vet(dev.Measurement())
	if err := reg.Ingest(glimmers.EncodeSignedContribution(sc)); err != nil {
		t.Fatal(err)
	}
	if got := rounds.Round(1).Count(); got != 1 {
		t.Fatalf("count = %d", got)
	}
	// The 538 attack through the facade.
	if _, err := dev.Contribute(2, glimmers.FromFloats([]float64{538, 0, 0, 0}), nil); !errors.Is(err, glimmer.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
}

// TestFacadeDealerMode exercises dealer blinding through the facade's
// registry: the testbed's fleet takes its masks from an attested dealer
// enclave, and the facade aggregates the blinded contributions exactly.
func TestFacadeDealerMode(t *testing.T) {
	const dim, n = 3, 4
	tn, err := testbed.NewTenant(testbed.TenantSpec{Name: "dealer.example", Devices: n, Dim: dim, Rounds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Destroy()
	tb := &glimmers.Testbed{AS: tn.AS, Platform: tn.Platform, Service: tn.Svc}
	reg, rounds := serialTenant(t, tb, dim)
	var want glimmers.Vector = make([]glimmers.Ring, dim)
	for _, dev := range tn.Devs {
		rounds.Vet(dev.Measurement())
		c := glimmers.FromFloats([]float64{0.25, 0.5, 0.75})
		for d := range want {
			want[d] += c[d]
		}
		sc, err := dev.Contribute(1, c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Ingest(glimmers.EncodeSignedContribution(sc)); err != nil {
			t.Fatal(err)
		}
	}
	got := rounds.Round(1).Sum()
	for d := range want {
		if got[d] != want[d] {
			t.Fatalf("aggregate mismatch at %d", d)
		}
	}
}
