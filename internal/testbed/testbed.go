// Package testbed is the one trust root every in-process world is built
// from: the daemon, the simulator, the experiments, the glimmers facade's
// Testbed, and the harnesses of the packages above service.
//
//	Substrate  attestation root + platform: what outlives every process
//	Tenant     a service, its predicate and keys, its hosting enclave, and
//	           its provisioned fleet with dealer masks for a stated round set
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

	"glimmers/internal/blind"
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
// predicate — the operator's config) and its provisioned Glimmer fleet
// (the clients).
type Tenant struct {
	TenantSpec
	*Substrate
	Svc *service.Service
	// HostCfg is the tenant's hosting enclave: what a node's edge loads and
	// provisions for each remote user's session. Its measurement is vetted
	// and is what the tenant's clients pin.
	HostCfg glimmer.Config
	Devs    []*glimmer.Device
	// Masks[r][i] is device i's dealer mask for round r (real and bogus
	// rounds alike). The testbed plays the §3 trusted dealer, so it
	// legitimately knows every mask.
	Masks map[uint64][]fixed.Vector
}

// NewTenant provisions spec on a fresh substrate.
func NewTenant(spec TenantSpec) (*Tenant, error) {
	sub, err := New()
	if err != nil {
		return nil, err
	}
	return sub.Provision(spec)
}

// Provision creates the tenant's service, vets its hosting enclave, deals
// each round's zero-sum masks, and loads and provisions one Glimmer device
// per client.
func (sub *Substrate) Provision(spec TenantSpec) (*Tenant, error) {
	pred := spec.Predicate
	if pred == nil {
		pred = predicate.UnitRangeCheck("unit-range", spec.Dim)
	}
	svc, err := sub.Service(spec.Name, pred)
	if err != nil {
		return nil, err
	}
	t := &Tenant{TenantSpec: spec, Substrate: sub, Svc: svc, Masks: make(map[uint64][]fixed.Vector, len(spec.Rounds))}
	if t.HostCfg, err = svc.GlimmerConfig(spec.Dim, glimmer.ModeNone, glimmer.DefaultPolicy); err != nil {
		return nil, err
	}
	svc.Vet(t.Measurement())
	for _, round := range spec.Rounds {
		// The seed's format pins every seeded run's masks.
		seed := fmt.Appendf(nil, "sim/%s/%d/masks/%d", spec.Name, spec.Seed, round)
		if t.Masks[round], err = blind.ZeroSumMasks(seed, spec.Devices, spec.Dim); err != nil {
			return nil, fmt.Errorf("testbed: dealer masks for round %d: %w", round, err)
		}
	}
	glimCfg, err := svc.GlimmerConfig(spec.Dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		return nil, fmt.Errorf("testbed: glimmer config: %w", err)
	}
	for i := 0; i < spec.Devices; i++ {
		masks := make(map[uint64][]uint64, len(t.Masks))
		for round, dealt := range t.Masks {
			masks[round] = glimmer.VectorToBits(dealt[i])
		}
		dev, err := svc.NewDevice(sub.Platform, glimCfg, masks)
		if err != nil {
			t.Destroy()
			return nil, fmt.Errorf("testbed: device %d: %w", i, err)
		}
		t.Devs = append(t.Devs, dev)
	}
	return t, nil
}

// Destroy tears down the tenant's fleet.
func (t *Tenant) Destroy() {
	for _, dev := range t.Devs {
		dev.Destroy()
	}
}

// Measurement is the hosting enclave's measurement.
func (t *Tenant) Measurement() tee.Measurement {
	return glimmer.BuildBinary(t.HostCfg).Measurement()
}

// NewDevice runs the trust path (Service.NewDevice) for one more client
// outside the fleet: an unblinded Glimmer of the hosting configuration.
func (t *Tenant) NewDevice() (*glimmer.Device, error) {
	return t.Svc.NewDevice(t.Platform, t.HostCfg, nil)
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
