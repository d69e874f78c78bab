package tee

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"glimmers/internal/xcrypto"
)

// PlatformID identifies one simulated CPU package.
type PlatformID [16]byte

// AttestationService plays the role Intel's attestation service plays for
// EPID/DCAP: it certifies platform attestation keys, and verifiers trust its
// root. In the paper's deployment story this is the component that lets a
// service (or the EFF, for users) check that a quote came from genuine
// hardware.
type AttestationService struct {
	root *xcrypto.SigningKey

	mu      sync.Mutex
	revoked map[PlatformID]bool
}

// NewAttestationService creates a service with a fresh root key.
func NewAttestationService() (*AttestationService, error) {
	root, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("tee: attestation service: %w", err)
	}
	return &AttestationService{root: root, revoked: make(map[PlatformID]bool)}, nil
}

// Root returns the verification key that relying parties embed.
func (as *AttestationService) Root() *xcrypto.VerifyKey { return as.root.Public() }

// Revoke marks a platform as compromised; its certificates stop verifying
// through IsRevoked checks done by QuoteVerifier.
func (as *AttestationService) Revoke(id PlatformID) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.revoked[id] = true
}

// IsRevoked reports whether the platform has been revoked.
func (as *AttestationService) IsRevoked(id PlatformID) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.revoked[id]
}

func (as *AttestationService) certify(id PlatformID, attestPub *xcrypto.VerifyKey) (PlatformCert, error) {
	der, err := attestPub.Marshal()
	if err != nil {
		return PlatformCert{}, fmt.Errorf("tee: certify platform: %w", err)
	}
	cert := PlatformCert{PlatformID: id, AttestKey: der}
	sig, err := as.root.Sign(cert.signedBytes())
	if err != nil {
		return PlatformCert{}, fmt.Errorf("tee: certify platform: %w", err)
	}
	cert.Signature = sig
	return cert, nil
}

// PlatformCert binds a platform's attestation key to its identity under the
// attestation service root.
type PlatformCert struct {
	PlatformID PlatformID
	AttestKey  []byte // PKIX DER of the platform attestation key
	Signature  []byte // attestation service root signature
}

func (c PlatformCert) signedBytes() []byte {
	buf := make([]byte, 0, 16+len(c.AttestKey)+32)
	buf = append(buf, []byte("glimmers/tee/platform-cert/v1\x00")...)
	buf = append(buf, c.PlatformID[:]...)
	buf = append(buf, c.AttestKey...)
	return buf
}

// Platform is one simulated SGX-capable machine: it owns the sealing root
// secret, the certified attestation key, monotonic counters, and the
// enclaves loaded on it.
type Platform struct {
	id        PlatformID
	sealRoot  [32]byte // fuse-derived sealing secret, never leaves the platform
	reportKey [32]byte // symmetric key for local attestation reports
	attestKey *xcrypto.SigningKey
	cert      PlatformCert
	as        *AttestationService

	mu       sync.Mutex
	counters map[string]uint64
}

// NewPlatform manufactures a platform and registers it with the attestation
// service.
func NewPlatform(as *AttestationService) (*Platform, error) {
	if as == nil {
		return nil, errors.New("tee: platform requires an attestation service")
	}
	p := &Platform{as: as, counters: make(map[string]uint64)}
	if _, err := rand.Read(p.id[:]); err != nil {
		return nil, fmt.Errorf("tee: platform id: %w", err)
	}
	var fuse [32]byte
	if _, err := rand.Read(fuse[:]); err != nil {
		return nil, fmt.Errorf("tee: platform fuses: %w", err)
	}
	p.sealRoot = xcrypto.DeriveKey32(fuse[:], "glimmers/tee/seal-root/v1")
	p.reportKey = xcrypto.DeriveKey32(fuse[:], "glimmers/tee/report-key/v1")
	attestKey, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("tee: platform attestation key: %w", err)
	}
	p.attestKey = attestKey
	cert, err := as.certify(p.id, attestKey.Public())
	if err != nil {
		return nil, err
	}
	p.cert = cert
	return p, nil
}

// ID returns the platform identity.
func (p *Platform) ID() PlatformID { return p.id }

// LoadOption configures enclave creation.
type LoadOption func(*loadConfig)

type loadConfig struct {
	epcBudget      int
	transitionCost time.Duration
	initInput      []byte
}

// WithEPCBudget caps the enclave's private memory at budget bytes, modelling
// the limited enclave page cache. Zero (the default) means unlimited.
func WithEPCBudget(budget int) LoadOption {
	return func(c *loadConfig) { c.epcBudget = budget }
}

// WithTransitionCost charges a synthetic latency for every ECALL and OCALL
// transition, modelling the hardware world-switch cost. The cost is actually
// slept so benchmark shapes reflect it; it is also accumulated in the stats.
func WithTransitionCost(cost time.Duration) LoadOption {
	return func(c *loadConfig) { c.transitionCost = cost }
}

// WithInitInput passes configuration to the binary's OnInit handler.
func WithInitInput(input []byte) LoadOption {
	return func(c *loadConfig) { c.initInput = append([]byte(nil), input...) }
}

// Load instantiates the binary as an enclave on this platform.
func (p *Platform) Load(b *Binary, opts ...LoadOption) (*Enclave, error) {
	if len(b.ecalls) == 0 {
		return nil, fmt.Errorf("tee: binary %q has no ECALLs", b.name)
	}
	var cfg loadConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	e := &Enclave{
		platform:       p,
		binary:         b,
		measurement:    b.Measurement(),
		signerID:       b.SignerID(),
		store:          make(map[string][]byte),
		epcBudget:      cfg.epcBudget,
		transitionCost: cfg.transitionCost,
	}
	if b.init != nil {
		if _, err := e.runInside(b.init, cfg.initInput); err != nil {
			return nil, fmt.Errorf("tee: enclave %q init: %w", b.name, err)
		}
	}
	return e, nil
}

// counterIncrement bumps a per-(measurement, name) monotonic counter and
// returns the new value. Counters survive enclave destruction, as SGX
// counters survive enclave teardown.
func (p *Platform) counterIncrement(m Measurement, name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	key := m.String() + "/" + name
	p.counters[key]++
	return p.counters[key]
}

func (p *Platform) counterRead(m Measurement, name string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counters[m.String()+"/"+name]
}

// sealKey derives the sealing key for a policy binding. Only the platform
// can compute it, and it differs per measurement (or signer).
func (p *Platform) sealKey(binding []byte) [32]byte {
	material := make([]byte, 0, len(p.sealRoot)+len(binding))
	material = append(material, p.sealRoot[:]...)
	material = append(material, binding...)
	return xcrypto.DeriveKey32(material, "glimmers/tee/seal-key/v1")
}

// reportMAC computes the local-attestation MAC over report bytes.
func (p *Platform) reportMAC(reportBytes []byte) [32]byte {
	material := make([]byte, 0, 32+len(reportBytes))
	material = append(material, p.reportKey[:]...)
	material = append(material, reportBytes...)
	return sha256.Sum256(material)
}
