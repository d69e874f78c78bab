// Package service implements the cloud side of the Glimmer architecture:
// the provider that vets Glimmer measurements, provisions signing keys and
// validation predicates over attested channels, and aggregates the signed,
// blinded contributions that come back.
//
// The service is *untrusted with private data* — everything it receives is
// blinded or validated-and-public — but it is the authority on what counts
// as a valid contribution: it picks the predicate, issues the signing key,
// and rejects anything not endorsed by a vetted Glimmer.
package service

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"glimmers/internal/attest"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// Attestable is anything the service can provision: a single-enclave
// Glimmer device, one component of a decomposed Glimmer, or a remote
// Glimmer proxied over the network (internal/gaas).
type Attestable interface {
	// Hello returns the enclave's encoded attestation hello.
	Hello() ([]byte, error)
	// Complete delivers the service's encoded handshake response.
	Complete(response []byte) error
	// Provision delivers a session-encrypted record and returns the
	// session-encrypted acknowledgement.
	Provision(record []byte) ([]byte, error)
}

// Service is one cloud service: identity keys, vetting policy, and the
// validation predicate it wants enforced client-side.
type Service struct {
	name       string
	identity   *xcrypto.SigningKey
	contribKey *xcrypto.SigningKey
	verifier   *tee.QuoteVerifier
	pred       *predicate.Program
	// dealer is the dealer enclave the service vouches for (zero: none).
	dealer tee.Measurement
}

// New creates a service trusting the given attestation root.
func New(name string, attestationRoot *xcrypto.VerifyKey) (*Service, error) {
	if name == "" {
		return nil, errors.New("service: empty name")
	}
	identity, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("service: identity key: %w", err)
	}
	contribKey, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("service: contribution key: %w", err)
	}
	return &Service{
		name:       name,
		identity:   identity,
		contribKey: contribKey,
		verifier:   &tee.QuoteVerifier{Root: attestationRoot},
	}, nil
}

// Name returns the service name.
func (s *Service) Name() string { return s.name }

// IdentityKeyDER returns the service identity verification key in the form
// a Glimmer Config embeds.
func (s *Service) IdentityKeyDER() ([]byte, error) {
	return s.identity.Public().Marshal()
}

// ContributionVerifyKey returns the key that verifies Glimmer-signed
// contributions and verdicts. The service owns the signing key, so the
// returned key is bound to it (xcrypto.SigningKey.SelfVerifyKey) and checks
// a signature with RFC 8032's scalar equation, without curve arithmetic, at
// about a twentieth of the cost of a curve verify. It holds the expanded
// private key: hand it only to components inside the service's
// trust boundary (its tenants, pipelines and gates). Anything that crosses
// a boundary gets its Marshal bytes.
func (s *Service) ContributionVerifyKey() *xcrypto.VerifyKey {
	return s.contribKey.SelfVerifyKey()
}

// Vet adds a Glimmer measurement to the allowlist — the paper's "once it
// has been vetted, the hash of the Glimmer is published". Safe to call
// while provisioning or ingest runs concurrently: the underlying
// QuoteVerifier serializes allowlist growth against its readers.
func (s *Service) Vet(m tee.Measurement) { s.verifier.Allow(m) }

// SetPredicate fixes the validation predicate the service provisions. The
// service verifies it locally first; shipping an unverifiable predicate is
// a service bug, caught here rather than by every client.
func (s *Service) SetPredicate(p *predicate.Program) error {
	if _, err := predicate.Verify(p); err != nil {
		return fmt.Errorf("service: predicate rejected: %w", err)
	}
	s.pred = p
	return nil
}

// VouchDealer names the one dealer enclave the service vouches for. Every
// payload then carries its measurement and the service's attestation root,
// so a dealer-mode Glimmer takes masks from that dealer and no other; the
// service itself never holds a mask.
func (s *Service) VouchDealer(m tee.Measurement) { s.dealer = m }

// GlimmerConfig builds the client-side configuration for this service. The
// measurement of a Glimmer built from it is what Vet expects.
func (s *Service) GlimmerConfig(dim int, mode glimmer.Mode, policy glimmer.Policy) (glimmer.Config, error) {
	der, err := s.IdentityKeyDER()
	if err != nil {
		return glimmer.Config{}, err
	}
	return glimmer.Config{
		ServiceName: s.name,
		ServiceKey:  der,
		Dim:         dim,
		Mode:        mode,
		Policy:      policy,
	}, nil
}

// BasePayload assembles the provisioning payload common to every device:
// signing key, predicate and, once VouchDealer has named one, the dealer's
// identity. A caller provisioning something other than a Device (the
// components of a decomposed Glimmer) starts from it directly.
func (s *Service) BasePayload() (glimmer.ProvisionPayload, error) {
	if s.pred == nil {
		return glimmer.ProvisionPayload{}, errors.New("service: no predicate set")
	}
	keyDER, err := s.contribKey.Marshal()
	if err != nil {
		return glimmer.ProvisionPayload{}, err
	}
	payload := glimmer.ProvisionPayload{
		SigningKey: keyDER,
		Predicate:  predicate.Encode(s.pred),
	}
	if s.dealer != (tee.Measurement{}) {
		if payload.AttestationRoot, err = s.verifier.Root.Marshal(); err != nil {
			return glimmer.ProvisionPayload{}, err
		}
		payload.DealerMeasurement = bytes.Clone(s.dealer[:])
	}
	return payload, nil
}

// NewDevice is the trust path for one client, start to finish: load a
// Glimmer built from cfg on the platform, vet its measurement, and
// provision it over the attested channel with the service's base payload.
// A device that fails any step is destroyed and nil is returned with the
// error.
func (s *Service) NewDevice(platform *tee.Platform, cfg glimmer.Config, opts ...tee.LoadOption) (*glimmer.Device, error) {
	dev, err := glimmer.NewDevice(platform, cfg, opts...)
	if err != nil {
		return nil, err
	}
	s.Vet(dev.Measurement())
	if err := s.provision(dev); err != nil {
		dev.Destroy()
		return nil, err
	}
	return dev, nil
}

// ProvisionDevice provisions a freshly loaded device whose measurement is
// already vetted. As a method value it is the hosting hook: what
// TenantConfig.Provision runs on each enclave loaded for a remote user's
// session.
func (s *Service) ProvisionDevice(dev *glimmer.Device) error { return s.provision(dev) }

func (s *Service) provision(dev Attestable) error {
	payload, err := s.BasePayload()
	if err != nil {
		return err
	}
	return s.Provision(dev, payload)
}

// Provision runs the full provisioning protocol against one attestable
// enclave: verify its quote against the allowlist, authenticate ourselves,
// and install the payload over the session.
func (s *Service) Provision(dev Attestable, payload glimmer.ProvisionPayload) error {
	helloBytes, err := dev.Hello()
	if err != nil {
		return fmt.Errorf("service: hello: %w", err)
	}
	hello, err := attest.DecodeHello(helloBytes)
	if err != nil {
		return fmt.Errorf("service: hello: %w", err)
	}
	// The context must be our provisioning context (optionally suffixed
	// with a component role for decomposed Glimmers).
	want := glimmer.ProvisionContext(s.name)
	if hello.Context != want && !strings.HasPrefix(hello.Context, want+"#") {
		return fmt.Errorf("service: handshake context %q is not for this service", hello.Context)
	}
	session, resp, err := attest.Respond(hello, s.verifier, s.identity, hello.Context)
	if err != nil {
		return fmt.Errorf("service: attestation: %w", err)
	}
	if err := dev.Complete(attest.EncodeResponse(resp)); err != nil {
		return fmt.Errorf("service: complete: %w", err)
	}
	record, err := session.Send(glimmer.EncodeProvision(payload))
	if err != nil {
		return err
	}
	ackRecord, err := dev.Provision(record)
	if err != nil {
		return fmt.Errorf("service: provision: %w", err)
	}
	ack, err := session.Recv(ackRecord)
	if err != nil {
		return fmt.Errorf("service: acknowledgement: %w", err)
	}
	if string(ack) != "provisioned" {
		return fmt.Errorf("service: unexpected acknowledgement %q", ack)
	}
	return nil
}
