// Package glimmers is a reproduction of "Glimmers: Resolving the
// Privacy/Trust Quagmire" (Lie & Maniatis, HotOS 2017): a client-side
// trusted third party — the Glimmer — that validates privacy-sensitive user
// contributions on behalf of a service, blinds them for secure aggregation,
// and signs them, so services get trustworthy inputs without users
// surrendering private data.
//
// This root package is the public facade: it re-exports the main types from
// the internal packages and provides a Testbed that assembles a complete
// deployment (attestation service, platform, cloud service) in a few
// calls; Glimmer devices come from Service.NewDevice, the one definition
// of the load → vet → provision trust path. See the examples/ directory
// for runnable walkthroughs and README.md for the system inventory and the
// experiment index.
//
// The paper's SGX substrate is simulated in software (package tee): the
// simulation enforces the same contracts — isolation, measurement,
// attestation, sealing — that the design relies on. See README.md for the
// substitution rationale.
package glimmers

import (
	"fmt"

	"glimmers/internal/attest"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/testbed"
)

// Re-exported core types. The aliases make the internal implementations
// part of the public API without duplicating them.
type (
	// AttestationService certifies platforms; verifiers trust its root.
	AttestationService = tee.AttestationService
	// Platform is one simulated SGX-capable machine.
	Platform = tee.Platform
	// Measurement identifies enclave code (MRENCLAVE analogue).
	Measurement = tee.Measurement
	// QuoteVerifier checks enclave quotes against a measurement allowlist.
	QuoteVerifier = tee.QuoteVerifier

	// Config fixes a Glimmer's identity: service, dimension, blinding
	// mode, predicate policy.
	Config = glimmer.Config
	// Device is the host-side handle to a single-enclave Glimmer.
	Device = glimmer.Device
	// DecomposedDevice drives the three-enclave Glimmer of §3.
	DecomposedDevice = glimmer.DecomposedDevice
	// SignedContribution is the Glimmer's endorsed, blinded output.
	SignedContribution = glimmer.SignedContribution
	// Verdict is the one-bit §4.1 bot-detection output.
	Verdict = glimmer.Verdict
	// Mode selects the blinding construction.
	Mode = glimmer.Mode
	// Policy constrains installable predicates.
	Policy = glimmer.Policy

	// Service is the cloud side: provisioning, vetting, aggregation.
	Service = service.Service
	// Pipeline is the concurrent, sharded ingest path for one round, with
	// an explicit open → sealed → closed lifecycle.
	Pipeline = service.Pipeline
	// RoundManager owns one tenant's pipelines for concurrent rounds.
	RoundManager = service.RoundManager
	// Registry hosts many tenants — each with its own predicate, keys, and
	// rounds — under one shared budget, routing contributions by the
	// service name they carry.
	Registry = service.Registry
	// TenantConfig describes one of a Registry's hosted services, and
	// sizes its rounds: Workers: 1 configures the serial baseline, every
	// frame verified on the goroutine that submits it.
	TenantConfig = service.TenantConfig
	// BotGate consumes §4.1 verdicts.
	BotGate = service.BotGate

	// Program is a validation predicate.
	Program = predicate.Program
	// Analysis is the static verifier's certificate for a Program.
	Analysis = predicate.Analysis

	// Vector is a fixed-point contribution vector.
	Vector = fixed.Vector
	// Ring is one fixed-point ring element.
	Ring = fixed.Ring

	// Session is an attested secure channel.
	Session = attest.Session
)

// Blinding modes.
const (
	ModeNone     = glimmer.ModeNone
	ModeDealer   = glimmer.ModeDealer
	ModePairwise = glimmer.ModePairwise
)

// DefaultPolicy is the canonical predicate-installation policy: one
// declassification site, bounded cost.
var DefaultPolicy = glimmer.DefaultPolicy

// Frequently used constructors, re-exported.
var (
	// NewAttestationService creates the root of platform trust.
	NewAttestationService = tee.NewAttestationService
	// NewPlatform manufactures a simulated SGX platform.
	NewPlatform = tee.NewPlatform
	// NewDevice loads a single-enclave Glimmer.
	NewDevice = glimmer.NewDevice
	// NewService creates a cloud service trusting an attestation root.
	NewService = service.New
	// NewRegistry starts a multi-tenant registry with a shared round budget.
	NewRegistry = service.NewRegistry
	// UnitRangeCheck builds the paper's canonical [0,1] validator.
	UnitRangeCheck = predicate.UnitRangeCheck
	// FromFloats encodes a real vector into the fixed-point ring.
	FromFloats = fixed.FromFloats
	// EncodeSignedContribution serializes a contribution for transport.
	EncodeSignedContribution = glimmer.EncodeSignedContribution
)

// Testbed is a complete in-process deployment: attestation service,
// platform, and cloud service sharing one trust root (internal/testbed,
// the substrate every in-process world is built from). It exists so
// examples and downstream users can get to a working Glimmer in a few
// lines.
type Testbed struct {
	AS       *AttestationService
	Platform *Platform
	Service  *Service
}

// NewTestbed assembles a deployment for the named service with the given
// validation predicate.
func NewTestbed(serviceName string, pred *Program) (*Testbed, error) {
	sub, err := testbed.New()
	if err != nil {
		return nil, fmt.Errorf("glimmers: %w", err)
	}
	svc, err := sub.Service(serviceName, pred)
	if err != nil {
		return nil, fmt.Errorf("glimmers: %w", err)
	}
	return &Testbed{AS: sub.AS, Platform: sub.Platform, Service: svc}, nil
}

// NewProvisionedDevice returns a Glimmer for the testbed's service, ready
// to contribute: Service.NewDevice (load, vet, provision) on the testbed's
// platform. A dealer-mode device also needs a dealer enclave the service
// vouches for; internal/testbed's Tenant runs one for its fleet.
func (tb *Testbed) NewProvisionedDevice(dim int, mode Mode) (*Device, error) {
	cfg, err := tb.Service.GlimmerConfig(dim, mode, DefaultPolicy)
	if err != nil {
		return nil, err
	}
	return tb.Service.NewDevice(tb.Platform, cfg)
}
