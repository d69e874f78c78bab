package testbed

import (
	"slices"
	"strings"
	"testing"

	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
)

// TestProvisionedTenantEndToEnd: the tenant's seeded dealer deals the
// masks the seed names and reveals each round once, Config vets the hosting enclave and the fleet, its hosting hook
// provisions a fresh enclave, and a registry hosting Config takes the whole
// fleet's ticketed contributions to the exact clear sum.
func TestProvisionedTenantEndToEnd(t *testing.T) {
	const devices, dim = 3, 2
	tn, err := NewTenant(TenantSpec{Name: "testbed.example", Seed: 7, Devices: devices, Dim: dim,
		Rounds: []uint64{1, 2}, Hosting: service.TenantConfig{TicketPolicy: &service.TicketConfig{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer tn.Destroy()
	dealt, err := blind.ZeroSumMasks([]byte("sim/testbed.example/7/masks/2"), devices, dim)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := tn.Reveal(2, []uint32{1}); err != nil || !slices.Equal(got, dealt[1]) {
		t.Errorf("reveal of device 1 in round 2 = (%v, %v), want %v", got, err, dealt[1])
	}
	if _, err := tn.Reveal(2, []uint32{0}); err == nil {
		t.Error("the dealer revealed round 2 twice")
	}

	cfg := tn.Config()
	if len(cfg.Vetted) != 1+devices || cfg.Vetted[0] != tn.Measurement() || cfg.Vetted[1] != tn.Devs[0].Measurement() {
		t.Errorf("vetted %v, want the hosting enclave then the fleet", cfg.Vetted)
	}
	hosted, err := glimmer.NewDevice(tn.Platform, cfg.Glimmer)
	if err != nil {
		t.Fatal(err)
	}
	defer hosted.Destroy()
	if err := cfg.Provision(hosted); err != nil {
		t.Fatalf("hosting hook: %v", err)
	}

	registry := service.NewRegistry(0)
	tenant, err := registry.AddTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fixed.NewVector(dim)
	for d := range tn.Devs {
		if err := tn.GrantTicket(d, 1, 1, registry.GrantTicket); err != nil {
			t.Fatal(err)
		}
		value := fixed.FromFloats([]float64{0.25 * float64(d), 0.5})
		want.AddInPlace(value)
		raw, err := tn.Contribute(d, 1, value, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := registry.Ingest(raw); err != nil {
			t.Fatalf("device %d: %v", d, err)
		}
	}
	p, ok := tenant.Manager().Lookup(1)
	if !ok {
		t.Fatal("round 1 was never created")
	}
	if p.Count() != devices || !slices.Equal(p.Sum(), want) {
		t.Errorf("round 1 holds %v, want %d contributions summing to %v", p.Sum(), devices, want)
	}
}

// TestCensusSettle: Settle waits out a goroutine that is on its way out,
// and names one that never leaves by where it was created — even while a
// goroutine counted in the baseline exits, which a count would take for
// the stuck one leaving.
func TestCensusSettle(t *testing.T) {
	leaving := make(chan struct{})
	go func() { <-leaving }()
	baseline := TakeCensus()
	go func() {}()
	if err := baseline.Settle(); err != nil {
		t.Errorf("exiting goroutine: %v", err)
	}
	stuck := make(chan struct{})
	defer close(stuck)
	go func() { <-stuck }()
	close(leaving)
	if err := baseline.Settle(); err == nil || !strings.Contains(err.Error(), "TestCensusSettle") {
		t.Errorf("stuck goroutine: Settle returned %v, want it named with its creation site", err)
	}
}
