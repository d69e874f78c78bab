package tee

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"sync"

	"glimmers/internal/xcrypto"
)

// ReportDataSize is the number of user-controlled bytes a report carries,
// matching SGX's 64-byte REPORTDATA field. Protocols put a hash of whatever
// they want bound to the attestation (e.g. a DH public value) here.
const ReportDataSize = 64

// Report is a local attestation statement: this measurement, from this
// signer, on this platform, vouches for this data. Its MAC is keyed by a
// platform secret, so only enclaves on the same platform can verify it.
type Report struct {
	Measurement Measurement
	Signer      SignerID
	Platform    PlatformID
	Data        [ReportDataSize]byte
	MAC         [32]byte
}

func (r Report) signedBytes() []byte {
	var buf bytes.Buffer
	buf.WriteString("glimmers/tee/report/v1\x00")
	buf.Write(r.Measurement[:])
	buf.Write(r.Signer[:])
	buf.Write(r.Platform[:])
	buf.Write(r.Data[:])
	return buf.Bytes()
}

// NewReport creates a report binding up to ReportDataSize bytes of data to
// the running enclave's identity.
func (env *Env) NewReport(data []byte) (Report, error) {
	if len(data) > ReportDataSize {
		return Report{}, fmt.Errorf("tee: report data %d bytes exceeds %d", len(data), ReportDataSize)
	}
	r := Report{
		Measurement: env.enclave.measurement,
		Signer:      env.enclave.signerID,
		Platform:    env.enclave.platform.id,
	}
	copy(r.Data[:], data)
	r.MAC = env.enclave.platform.reportMAC(r.signedBytes())
	return r, nil
}

// VerifyReport checks a report produced on the same platform (local
// attestation between enclaves, used by decomposed Glimmers to trust each
// other's components).
func (env *Env) VerifyReport(r Report) bool {
	if r.Platform != env.enclave.platform.id {
		return false
	}
	want := env.enclave.platform.reportMAC(r.signedBytes())
	return subtle.ConstantTimeCompare(want[:], r.MAC[:]) == 1
}

// Quote is a remotely verifiable attestation: a report signed by the
// platform's certified attestation key. Anyone holding the attestation
// service root can verify it.
type Quote struct {
	Report    Report
	Cert      PlatformCert
	Signature []byte
}

// NewQuote produces a quote over up to ReportDataSize bytes of data. This is
// the message a Glimmer presents to prove "I am the vetted Glimmer code".
func (env *Env) NewQuote(data []byte) (Quote, error) {
	r, err := env.NewReport(data)
	if err != nil {
		return Quote{}, err
	}
	p := env.enclave.platform
	sig, err := p.attestKey.Sign(r.signedBytes())
	if err != nil {
		return Quote{}, fmt.Errorf("tee: quote signing: %w", err)
	}
	return Quote{Report: r, Cert: p.cert, Signature: sig}, nil
}

// Quote verification errors.
var (
	ErrQuoteCert        = errors.New("tee: quote platform certificate invalid")
	ErrQuoteSignature   = errors.New("tee: quote signature invalid")
	ErrQuoteMeasurement = errors.New("tee: quote measurement not in allowlist")
	ErrQuoteRevoked     = errors.New("tee: quote platform revoked")
	ErrQuotePlatform    = errors.New("tee: quote certificate does not match report platform")
)

// QuoteVerifier checks quotes against the attestation service root and an
// optional measurement allowlist — the paper's "published hash of the
// vetted Glimmer".
//
// Allow and Verify are safe for concurrent use: services vet new Glimmer
// builds while live ingest pipelines verify quotes against the same
// allowlist. The exported fields are fixed at construction; runtime
// allowlist growth must go through Allow.
type QuoteVerifier struct {
	// Root is the attestation service's verification key. Required.
	Root *xcrypto.VerifyKey
	// Allowed, when non-empty, is the set of acceptable measurements.
	Allowed []Measurement
	// Revoked, when non-nil, consults a revocation oracle for the platform.
	Revoked func(PlatformID) bool

	mu sync.RWMutex // guards Allowed against concurrent Allow/Verify

	// keyMu/keys memoise platform certificates that verified under Root:
	// the digest of a certificate (signed bytes and signature) maps to its
	// parsed attestation key. A fleet has few platforms but millions of
	// handshakes, so after a platform's first quote every later one skips
	// the root signature check and the DER parse — one of the two signature
	// verifies a quote costs. Sound because Root is fixed at construction
	// and an entry is made only after the certificate verified and its key
	// parsed; a certificate that fails is never cached, and any altered
	// byte is a different digest. Bounded to keep a hostile stream of
	// fresh certificates from growing the map without limit.
	keyMu sync.RWMutex
	keys  map[[32]byte]*xcrypto.VerifyKey
}

// maxCachedAttestKeys bounds the certificate cache; at the bound the cache
// is dropped wholesale (a fleet rotates keys slowly, so eviction finesse
// buys nothing).
const maxCachedAttestKeys = 1024

// certifiedKey returns the attestation key cert binds to its platform,
// once cert has verified under Root — from cache when this exact
// certificate already has.
func (v *QuoteVerifier) certifiedKey(cert PlatformCert) (*xcrypto.VerifyKey, error) {
	signed := cert.signedBytes()
	// The signature's length closes the digest: AttestKey and Signature
	// are both variable-length, and without it shifting bytes between them
	// would keep the concatenation — and so the cache key — unchanged.
	sigLen := len(cert.Signature)
	digest := sha256.Sum256(append(append(signed, cert.Signature...), byte(sigLen>>8), byte(sigLen)))
	v.keyMu.RLock()
	key := v.keys[digest]
	v.keyMu.RUnlock()
	if key != nil {
		return key, nil
	}
	if !v.Root.Verify(signed, cert.Signature) {
		return nil, ErrQuoteCert
	}
	key, err := xcrypto.ParseVerifyKey(cert.AttestKey)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrQuoteCert, err)
	}
	v.keyMu.Lock()
	if v.keys == nil || len(v.keys) >= maxCachedAttestKeys {
		v.keys = make(map[[32]byte]*xcrypto.VerifyKey, 8)
	}
	v.keys[digest] = key
	v.keyMu.Unlock()
	return key, nil
}

// Allow appends a measurement to the allowlist.
func (v *QuoteVerifier) Allow(m Measurement) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.Allowed = append(v.Allowed, m)
}

// allowed reports whether the measurement passes the allowlist (an empty
// allowlist admits everything).
func (v *QuoteVerifier) allowed(m Measurement) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if len(v.Allowed) == 0 {
		return true
	}
	for _, a := range v.Allowed {
		if a == m {
			return true
		}
	}
	return false
}

// Verify checks the full chain: certificate under the root (memoised per
// certificate, see certifiedKey), platform consistency, revocation, report
// signature under the certified key, and measurement allowlisting — all
// but the first on every call. On success the quote's report contents can
// be trusted.
func (v *QuoteVerifier) Verify(q Quote) error {
	if v.Root == nil {
		return errors.New("tee: QuoteVerifier has no root key")
	}
	attestKey, err := v.certifiedKey(q.Cert)
	if err != nil {
		return err
	}
	if q.Cert.PlatformID != q.Report.Platform {
		return ErrQuotePlatform
	}
	if v.Revoked != nil && v.Revoked(q.Cert.PlatformID) {
		return ErrQuoteRevoked
	}
	if !attestKey.Verify(q.Report.signedBytes(), q.Signature) {
		return ErrQuoteSignature
	}
	if !v.allowed(q.Report.Measurement) {
		return fmt.Errorf("%w: %v", ErrQuoteMeasurement, q.Report.Measurement)
	}
	return nil
}
