// Package testbed is the one trust root every in-process world is built
// from: the daemon, the simulator, the experiments, the glimmers facade's
// Testbed, and the harnesses of the packages above service.
//
//	Substrate  attestation root + platform: what outlives every process
//	Tenant     a service, its predicate and keys, its hosting enclave, and
//	           its provisioned fleet, blinded by an attested dealer enclave
//	           for a stated round set
//
// This is the paper's trust path (§3, Figure 3) written once: an
// attestation root certifies a platform, a service trusting the root picks
// the predicate, vets the Glimmer's measurement and provisions it.
// Tenant.Config is what a node registers for the tenant. The package
// imports nothing above service, so the in-package tests of gaas and node
// can use it; starting a node therefore stays with the callers.
package testbed

import (
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

// Substrate is the hardware and attestation root every tenant and node of
// a world shares.
type Substrate struct {
	AS       *tee.AttestationService
	Platform *tee.Platform
}

// New mints an attestation root and one platform certified under it.
func New() (*Substrate, error) {
	as, err := tee.NewAttestationService()
	if err != nil {
		return nil, fmt.Errorf("testbed: attestation service: %w", err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		return nil, fmt.Errorf("testbed: platform: %w", err)
	}
	return &Substrate{AS: as, Platform: platform}, nil
}

// Service creates a cloud service that trusts the substrate's root and
// enforces pred.
func (sub *Substrate) Service(name string, pred *predicate.Program) (*service.Service, error) {
	svc, err := service.New(name, sub.AS.Root())
	if err != nil {
		return nil, fmt.Errorf("testbed: service: %w", err)
	}
	if err := svc.SetPredicate(pred); err != nil {
		return nil, fmt.Errorf("testbed: predicate: %w", err)
	}
	return svc, nil
}

// TenantSpec describes one tenant and its fleet.
type TenantSpec struct {
	Name    string
	Seed    int64
	Devices int
	Dim     int
	// Predicate is what the tenant's Glimmers enforce; nil means the
	// paper's canonical [0,1] range check.
	Predicate *predicate.Program
	// Rounds is the set the dealer deals zero-sum masks for: every round a
	// device may name, bogus and probe rounds included.
	Rounds []uint64
	// Hosting is the template every node registers the tenant from
	// (pipeline sizing, admission quota, ticket policy). Config fills in
	// the rest; a non-nil TicketPolicy puts the fleet on the session-ticket
	// fast path.
	Hosting service.TenantConfig
}

// Tenant is everything about a tenant that lives outside any server
// process, so no node crash erases it: its cloud service (keys and
// predicate — the operator's config), its provisioned Glimmer fleet (the
// clients), and the dealer enclave that blinds the fleet.
type Tenant struct {
	TenantSpec
	*Substrate
	Svc *service.Service
	// HostCfg is the tenant's hosting enclave: what a node's edge loads and
	// provisions for each remote user's session. Its measurement is vetted
	// and is what the tenant's clients pin.
	HostCfg glimmer.Config
	Devs    []*glimmer.Device
	// dealer is the §3 trusted blinding service: an attested enclave the
	// testbed hosts, not plays. It alone holds the masks; the testbed only
	// relays its ciphertext records to the fleet.
	dealer *glimmer.DealerHost
}

// NewTenant provisions spec on a fresh substrate.
func NewTenant(spec TenantSpec) (*Tenant, error) {
	sub, err := New()
	if err != nil {
		return nil, err
	}
	return sub.Provision(spec)
}

// Provision creates the tenant's service, vets its hosting enclave, loads
// the tenant's dealer enclave and has the service vouch for it, loads and
// provisions one Glimmer device per client, enrolls device i at cohort
// index i, and relays each round's dealt records to the fleet. The dealer
// is seeded from the spec, so every seeded run deals the same masks.
func (sub *Substrate) Provision(spec TenantSpec) (*Tenant, error) {
	pred := spec.Predicate
	if pred == nil {
		pred = predicate.UnitRangeCheck("unit-range", spec.Dim)
	}
	svc, err := sub.Service(spec.Name, pred)
	if err != nil {
		return nil, err
	}
	t := &Tenant{TenantSpec: spec, Substrate: sub, Svc: svc}
	if t.HostCfg, err = svc.GlimmerConfig(spec.Dim, glimmer.ModeNone, glimmer.DefaultPolicy); err != nil {
		return nil, err
	}
	svc.Vet(t.Measurement())
	glimCfg, err := svc.GlimmerConfig(spec.Dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		return nil, fmt.Errorf("testbed: glimmer config: %w", err)
	}
	rootDER, err := sub.AS.Root().Marshal()
	if err != nil {
		return nil, fmt.Errorf("testbed: attestation root: %w", err)
	}
	t.dealer, err = glimmer.NewDealerHost(sub.Platform, glimmer.DealerConfig{
		ServiceName:     spec.Name,
		AttestationRoot: rootDER,
		AllowedClient:   glimmer.BuildBinary(glimCfg).Measurement(),
		Seed:            fmt.Appendf(nil, "sim/%s/%d", spec.Name, spec.Seed),
	})
	if err != nil {
		return nil, fmt.Errorf("testbed: %w", err)
	}
	svc.VouchDealer(t.dealer.Measurement())
	if err := t.provisionFleet(glimCfg); err != nil {
		t.Destroy()
		return nil, err
	}
	return t, nil
}

// provisionFleet loads, provisions and enrolls the spec's devices, then
// deals every round of the spec to them.
func (t *Tenant) provisionFleet(cfg glimmer.Config) error {
	for i := 0; i < t.Devices; i++ {
		dev, err := t.Svc.NewDevice(t.Platform, cfg)
		if err != nil {
			return fmt.Errorf("testbed: device %d: %w", i, err)
		}
		t.Devs = append(t.Devs, dev)
		hello, err := dev.DealerHello()
		if err != nil {
			return fmt.Errorf("testbed: device %d dealer hello: %w", i, err)
		}
		resp, err := t.dealer.Enroll(uint32(i), hello)
		if err != nil {
			return fmt.Errorf("testbed: device %d enroll: %w", i, err)
		}
		if err := dev.DealerComplete(resp); err != nil {
			return fmt.Errorf("testbed: device %d dealer handshake: %w", i, err)
		}
	}
	for _, round := range t.Rounds {
		records, err := t.dealer.Distribute(t.Dim, round)
		if err != nil {
			return fmt.Errorf("testbed: dealing round %d: %w", round, err)
		}
		for i, dev := range t.Devs {
			if err := dev.InstallMask(records[uint32(i)]); err != nil {
				return fmt.Errorf("testbed: device %d round %d mask: %w", i, round, err)
			}
		}
	}
	return nil
}

// Reveal asks the tenant's dealer for the sum of the absent devices' masks
// for a dealt round: the dropout correction for devices whose
// contributions never entered it. The dealer answers each round once.
func (t *Tenant) Reveal(round uint64, absent []uint32) (fixed.Vector, error) {
	return t.dealer.Reveal(round, absent)
}

// Destroy tears down the tenant's fleet and its dealer.
func (t *Tenant) Destroy() {
	for _, dev := range t.Devs {
		dev.Destroy()
	}
	if t.dealer != nil {
		t.dealer.Destroy()
	}
}

// Measurement is the hosting enclave's measurement.
func (t *Tenant) Measurement() tee.Measurement {
	return glimmer.BuildBinary(t.HostCfg).Measurement()
}

// NewDevice runs the trust path (Service.NewDevice) for one more client
// outside the fleet: an unblinded Glimmer of the hosting configuration.
func (t *Tenant) NewDevice() (*glimmer.Device, error) {
	return t.Svc.NewDevice(t.Platform, t.HostCfg)
}

// Config is the tenant's registration on one server life — what glimmerd
// reconstructs from its flags on every start, before recovering any
// durable state: the Hosting template with the service's verify key, the
// hosting enclave and its provisioning hook, and the hosting and fleet
// measurements vetted.
func (t *Tenant) Config() service.TenantConfig {
	cfg := t.Hosting
	cfg.Name, cfg.Verify, cfg.Dim = t.Name, t.Svc.ContributionVerifyKey(), t.Dim
	cfg.Glimmer, cfg.Provision = t.HostCfg, t.Svc.ProvisionDevice
	cfg.Vetted = []tee.Measurement{t.Measurement()}
	for _, dev := range t.Devs {
		cfg.Vetted = append(cfg.Vetted, dev.Measurement())
	}
	return cfg
}

// Contribute runs device d's client-side pipeline in the tenant's
// authentication mode: the Glimmer validates and blinds either way, then
// seals with a signature or — on the ticketed fast path — the session MAC.
func (t *Tenant) Contribute(d int, round uint64, value fixed.Vector, private []int64) ([]byte, error) {
	if t.Hosting.TicketPolicy != nil {
		tc, err := t.Devs[d].ContributeTicketed(round, value, private)
		if err != nil {
			return nil, err
		}
		return glimmer.EncodeTicketedContribution(tc), nil
	}
	sc, err := t.Devs[d].Contribute(round, value, private)
	if err != nil {
		return nil, err
	}
	return glimmer.EncodeSignedContribution(sc), nil
}

// GrantTicket runs device d's grant exchange for rounds [first, last]
// through grant (a registry directly, or the gaas ticket-grant command):
// the session's single asymmetric operation, after which every
// contribution rides the MAC fast path. Installing a ticket replaces the
// device's session.
func (t *Tenant) GrantTicket(d int, first, last uint64, grant func([]byte) ([]byte, error)) error {
	req, err := t.Devs[d].TicketRequest(first, last)
	if err != nil {
		return fmt.Errorf("testbed: device %d ticket request: %w", d, err)
	}
	reply, err := grant(req)
	if err != nil {
		return fmt.Errorf("testbed: device %d ticket grant: %w", d, err)
	}
	if err := t.Devs[d].InstallTicket(reply); err != nil {
		return fmt.Errorf("testbed: device %d ticket install: %w", d, err)
	}
	return nil
}
