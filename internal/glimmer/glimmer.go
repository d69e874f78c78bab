// Package glimmer implements the paper's primary contribution: the Glimmer
// of Trust, a minimal client-side trusted third party that validates user
// contributions against service-defined predicates, blinds them for secure
// aggregation, and signs them so the service can tell validated
// contributions from forged ones — all without the user's private data ever
// crossing the trust boundary (Figures 2 and 3).
//
// The Glimmer runs inside a simulated SGX enclave (internal/tee). Its three
// components — Validation, Blinding, Signing — live in a single enclave by
// default (one transition in and out, as §3 recommends), or in three
// separate enclaves connected by local-attestation-secured channels for the
// decomposed configuration §3 sketches for easier verification
// (internal/glimmer/decomposed.go).
//
// Lifecycle:
//
//  1. The service vets the Glimmer binary and publishes its measurement.
//  2. The device loads the enclave and opens an attested channel to the
//     service ("hello"/"complete" ECALLs wrapping internal/attest).
//  3. The service provisions, over that channel: its contribution-signing
//     key, the validation predicate (statically verified on install), and
//     per-round blinding material ("provision" ECALL).
//  4. For each contribution the host passes the proposed contribution plus
//     private validation data into the "contribute" ECALL and gets back a
//     blinded, signed contribution to forward to the service — or a refusal.
package glimmer

import (
	"bytes"
	"errors"
	"fmt"

	"glimmers/internal/attest"
	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/predicate"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Mode selects how contributions are blinded before release.
type Mode byte

const (
	// ModeNone releases validated contributions unblinded — for inherently
	// public contributions like the paper's crowd-sourced map photos.
	ModeNone Mode = iota
	// ModeDealer adds a dealer-provisioned mask (the §3 scheme: masks sum
	// to zero across the cohort).
	ModeDealer
	// ModePairwise adds Bonawitz-style pairwise masks derived inside the
	// enclave from a roster of peer keys.
	ModePairwise
)

// Policy is the Glimmer's predicate-installation policy: the properties a
// service-supplied validator must have been proven to satisfy before the
// Glimmer will run it over private data.
type Policy struct {
	// MaxDeclassSites caps explicit declassification points. The canonical
	// value is 1: the single verdict.
	MaxDeclassSites int
	// MaxCostBound caps the proven worst-case instruction count.
	MaxCostBound int64
}

// DefaultPolicy is the vetted-Glimmer policy: one declassification site,
// a generous but finite cost budget.
var DefaultPolicy = Policy{MaxDeclassSites: 1, MaxCostBound: 1 << 24}

// Config fixes a Glimmer's identity. It is folded into the enclave binary's
// code identity, so the published measurement covers the service key, the
// expected dimensionality, the blinding mode, and the policy — swap any of
// them and attestation fails, exactly as the paper requires for the
// "embedded signature verification key" of §4.1.
type Config struct {
	// ServiceName names the service, separating attestation contexts.
	ServiceName string
	// ServiceKey is the PKIX DER of the service's identity key; the
	// Glimmer only completes handshakes signed by it.
	ServiceKey []byte
	// Dim is the contribution dimensionality the Glimmer accepts.
	Dim int
	// Mode selects the blinding construction.
	Mode Mode
	// Policy constrains installable predicates.
	Policy Policy
	// MinVerdict is the validation threshold: a predicate verdict below it
	// is a refusal. Zero means the default of 1 (any nonzero verdict
	// passes). Services using confidence-valued predicates (§3) set e.g.
	// 60 to demand 60%+ confidence before endorsement.
	MinVerdict int64
}

func (c Config) minVerdict() int64 {
	if c.MinVerdict <= 0 {
		return 1
	}
	return c.MinVerdict
}

func (c Config) encode() []byte {
	return wire.NewWriter().
		String(c.ServiceName).
		Bytes(c.ServiceKey).
		Uint32(uint32(c.Dim)).
		Byte(byte(c.Mode)).
		Uint32(uint32(c.Policy.MaxDeclassSites)).
		Uint64(uint64(c.Policy.MaxCostBound)).
		Uint64(uint64(c.MinVerdict)).
		Finish()
}

func decodeConfig(data []byte) (Config, error) {
	r := wire.NewReader(data)
	c := Config{
		ServiceName: r.String(),
		ServiceKey:  r.Bytes(),
		Dim:         int(r.Uint32()),
		Mode:        Mode(r.Byte()),
	}
	c.Policy.MaxDeclassSites = int(r.Uint32())
	c.Policy.MaxCostBound = int64(r.Uint64())
	c.MinVerdict = int64(r.Uint64())
	if err := r.Done(); err != nil {
		return Config{}, fmt.Errorf("glimmer: config: %w", err)
	}
	return c, nil
}

// ProvisionContext returns the attested-channel context string for a
// service's provisioning handshake.
func ProvisionContext(serviceName string) string {
	return "glimmers/provision/v1/" + serviceName
}

// Version is the Glimmer core's code identity version; bump it and every
// published measurement changes.
const Version = "glimmer-core/2.0"

// Errors surfaced to the host. The host is untrusted, so errors carry no
// private data — in particular a validation refusal does not say which
// element failed.
var (
	ErrNotProvisioned = errors.New("glimmer: not provisioned")
	ErrRejected       = errors.New("glimmer: contribution failed validation")
	ErrPolicy         = errors.New("glimmer: predicate violates installation policy")
	ErrBadRequest     = errors.New("glimmer: malformed request")
	ErrState          = errors.New("glimmer: invalid lifecycle state")
)

// Enclave object-store keys.
const (
	objHandshake = "hs"
	objSession   = "session"
	objSignKey   = "signing-key"
	objPredicate = "predicate"
	objAnalysis  = "predicate-analysis"
	objMasks     = "masks"
	objParty     = "pairwise-party"
	objConfig    = "config"
)

// BuildBinary constructs the single-enclave Glimmer for a configuration.
// The returned binary's measurement is what a vetting authority (the
// paper's EFF example) would review and publish.
func BuildBinary(cfg Config) *tee.Binary {
	code := append([]byte(Version+"\x00"), cfg.encode()...)
	b := tee.NewBinary("glimmer", Version, code)
	b.OnInit(func(env *tee.Env, _ []byte) ([]byte, error) {
		return nil, env.PutObject(objConfig, cfg)
	})
	b.Define("hello", ecallHello)
	b.Define("complete", ecallComplete)
	b.Define("provision", ecallProvision)
	b.Define("contribute", ecallContribute)
	b.Define("detect", ecallDetect)
	b.Define("pairwise-pub", ecallPairwisePub)
	b.Define("user-hello", ecallUserHello)
	b.Define("user-complete", ecallUserComplete)
	b.Define("user-contribute", ecallUserContribute)
	b.Define("export-state", ecallExportState)
	b.Define("restore-state", ecallRestoreState)
	b.Define("dealer-hello", ecallDealerHello)
	b.Define("dealer-complete", ecallDealerComplete)
	b.Define("install-mask", ecallInstallMask)
	b.Define("ticket-request", ecallTicketRequest)
	b.Define("ticket-install", ecallTicketInstall)
	b.Define("contribute-ticketed", ecallContributeTicketed)
	return b
}

// UserContext returns the attested-channel context a user device (which may
// have no TEE of its own, §4.2) uses to verify it is sending private data to
// a genuine Glimmer.
func UserContext(serviceName string) string {
	return "glimmers/user/v1/" + serviceName
}

const objUserSession = "user-session"

// ecallUserHello opens the user-facing attested channel (§4.2): the user
// device will verify the quote; the Glimmer does not need to authenticate
// the user.
func ecallUserHello(env *tee.Env, _ []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	key, hello, err := attest.NewEnclaveHello(env, UserContext(cfg.ServiceName))
	if err != nil {
		return nil, err
	}
	if err := env.PutObject(objUserSession+"/hs", key); err != nil {
		return nil, err
	}
	return attest.EncodeHello(hello), nil
}

// ecallUserComplete finishes the user handshake with an anonymous peer.
func ecallUserComplete(env *tee.Env, input []byte) ([]byte, error) {
	v, ok := env.GetObject(objUserSession + "/hs")
	if !ok {
		return nil, fmt.Errorf("%w: no user handshake in progress", ErrState)
	}
	key := v.(*attest.EnclaveKey)
	resp, err := attest.DecodeResponse(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	session, err := key.Complete(resp, nil)
	if err != nil {
		return nil, err
	}
	env.DeleteObject(objUserSession + "/hs")
	return nil, env.PutObject(objUserSession, session)
}

// ecallUserContribute is the remote-Glimmer contribution path: the request
// arrives session-encrypted from the user device, and the signed result
// returns the same way, so the hosting third party (§4.2's set-top box,
// university, or EFF machine) sees neither the contribution nor the private
// validation data.
func ecallUserContribute(env *tee.Env, input []byte) ([]byte, error) {
	v, ok := env.GetObject(objUserSession)
	if !ok {
		return nil, fmt.Errorf("%w: no user session", ErrState)
	}
	session := v.(*attest.Session)
	plaintext, err := session.Recv(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	out, err := ecallContribute(env, plaintext)
	if err != nil {
		// Even refusals travel encrypted: the host learns nothing about
		// why (or whether) a particular contribution was refused.
		refusal, sendErr := session.Send([]byte("rejected"))
		if sendErr != nil {
			return nil, sendErr
		}
		if errors.Is(err, ErrRejected) {
			return refusal, nil
		}
		return nil, err
	}
	return session.Send(append([]byte("accepted:"), out...))
}

func configOf(env *tee.Env) (Config, error) {
	v, ok := env.GetObject(objConfig)
	if !ok {
		return Config{}, fmt.Errorf("%w: missing config", ErrState)
	}
	cfg, ok := v.(Config)
	if !ok {
		return Config{}, fmt.Errorf("%w: corrupt config", ErrState)
	}
	return cfg, nil
}

// handshakeContext returns the attested-channel context for this enclave:
// the service provisioning context, suffixed with the component role for
// decomposed deployments so the three component handshakes cannot be
// confused for one another.
func handshakeContext(env *tee.Env, cfg Config) string {
	context := ProvisionContext(cfg.ServiceName)
	if v, ok := env.GetObject(objRole); ok {
		context += "#" + v.(Role).String()
	}
	return context
}

// ecallHello starts the attested handshake with the service.
func ecallHello(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	context := handshakeContext(env, cfg)
	key, hello, err := attest.NewEnclaveHello(env, context)
	if err != nil {
		return nil, err
	}
	if err := env.PutObject(objHandshake, key); err != nil {
		return nil, err
	}
	return attest.EncodeHello(hello), nil
}

// ecallComplete finishes the handshake, authenticating the service against
// the key embedded in the Glimmer's measured configuration.
func ecallComplete(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	v, ok := env.GetObject(objHandshake)
	if !ok {
		return nil, fmt.Errorf("%w: no handshake in progress", ErrState)
	}
	key, ok := v.(*attest.EnclaveKey)
	if !ok {
		return nil, fmt.Errorf("%w: corrupt handshake state", ErrState)
	}
	resp, err := attest.DecodeResponse(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	serviceKey, err := xcrypto.ParseVerifyKey(cfg.ServiceKey)
	if err != nil {
		return nil, fmt.Errorf("%w: embedded service key: %v", ErrState, err)
	}
	session, err := key.Complete(resp, serviceKey)
	if err != nil {
		return nil, err
	}
	env.DeleteObject(objHandshake)
	if err := env.PutObject(objSession, session); err != nil {
		return nil, err
	}
	return nil, nil
}

// ecallProvision installs service-supplied material delivered over the
// session: the contribution-signing key, the validation predicate, and
// blinding material. The predicate is statically verified and checked
// against the measured policy before installation — an unverifiable or
// over-privileged predicate is refused no matter what the service says.
func ecallProvision(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	session, payload, err := recvProvision(env, input)
	if err != nil {
		return nil, err
	}
	if err := installSigningKey(env, payload); err != nil {
		return nil, err
	}
	if err := installPredicate(env, cfg, payload); err != nil {
		return nil, err
	}
	if err := installBlinding(env, cfg, payload); err != nil {
		return nil, err
	}
	// Acknowledge over the session so the service knows installation
	// succeeded inside the enclave, not just that the ECALL returned.
	return session.Send([]byte("provisioned"))
}

// recvProvision authenticates and decodes a provisioning record from the
// established service session.
func recvProvision(env *tee.Env, input []byte) (*attest.Session, ProvisionPayload, error) {
	v, ok := env.GetObject(objSession)
	if !ok {
		return nil, ProvisionPayload{}, fmt.Errorf("%w: no service session", ErrState)
	}
	session, ok := v.(*attest.Session)
	if !ok {
		return nil, ProvisionPayload{}, fmt.Errorf("%w: corrupt session state", ErrState)
	}
	plaintext, err := session.Recv(input)
	if err != nil {
		return nil, ProvisionPayload{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	payload, err := DecodeProvision(plaintext)
	if err != nil {
		return nil, ProvisionPayload{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return session, payload, nil
}

func installSigningKey(env *tee.Env, payload ProvisionPayload) error {
	signKey, err := xcrypto.ParseSigningKey(payload.SigningKey)
	if err != nil {
		return fmt.Errorf("%w: signing key: %v", ErrBadRequest, err)
	}
	return env.PutObject(objSignKey, signKey)
}

// installPredicate verifies the predicate and checks it against the
// measured policy before installation — an unverifiable or over-privileged
// predicate is refused no matter what the service says.
func installPredicate(env *tee.Env, cfg Config, payload ProvisionPayload) error {
	prog, err := predicate.Decode(payload.Predicate)
	if err != nil {
		return fmt.Errorf("%w: predicate: %v", ErrBadRequest, err)
	}
	analysis, err := predicate.Verify(prog)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrPolicy, err)
	}
	if cfg.Policy.MaxDeclassSites > 0 && len(analysis.DeclassSites) > cfg.Policy.MaxDeclassSites {
		return fmt.Errorf("%w: %d declassification sites (max %d)",
			ErrPolicy, len(analysis.DeclassSites), cfg.Policy.MaxDeclassSites)
	}
	if cfg.Policy.MaxCostBound > 0 && analysis.CostBound > cfg.Policy.MaxCostBound {
		return fmt.Errorf("%w: cost bound %d (max %d)",
			ErrPolicy, analysis.CostBound, cfg.Policy.MaxCostBound)
	}
	if err := env.PutObject(objPredicate, prog); err != nil {
		return err
	}
	return env.PutObject(objAnalysis, analysis)
}

func installBlinding(env *tee.Env, cfg Config, payload ProvisionPayload) error {
	switch cfg.Mode {
	case ModeDealer:
		// Dealer mode takes masks directly from the service payload, or a
		// vouched-for dealer-enclave identity to fetch them from (§3's
		// trusted blinding service), or both.
		if len(payload.DealerMeasurement) > 0 {
			if len(payload.DealerMeasurement) != len(tee.Measurement{}) {
				return fmt.Errorf("%w: dealer measurement is %d bytes", ErrBadRequest, len(payload.DealerMeasurement))
			}
			if len(payload.AttestationRoot) == 0 {
				return fmt.Errorf("%w: dealer measurement without attestation root", ErrBadRequest)
			}
			var dm tee.Measurement
			copy(dm[:], payload.DealerMeasurement)
			if err := env.PutObject(objDealerMeasurement, dm); err != nil {
				return err
			}
			if err := env.PutObject(objDealerRoot, payload.AttestationRoot); err != nil {
				return err
			}
		} else if len(payload.Masks) == 0 {
			return fmt.Errorf("%w: dealer mode without masks or dealer identity", ErrBadRequest)
		}
		masks := make(map[uint64]fixed.Vector, len(payload.Masks))
		for round, raw := range payload.Masks {
			if len(raw) != cfg.Dim {
				return fmt.Errorf("%w: mask dim %d != %d", ErrBadRequest, len(raw), cfg.Dim)
			}
			m := make(fixed.Vector, cfg.Dim)
			for i, u := range raw {
				m[i] = fixed.Ring(u)
			}
			masks[round] = m
		}
		return env.PutObject(objMasks, masks)
	case ModePairwise:
		if len(payload.Roster) == 0 {
			return fmt.Errorf("%w: pairwise mode without roster", ErrBadRequest)
		}
		return installParty(env, int(payload.PartyIndex), payload.Roster)
	case ModeNone:
		return nil
	}
	return fmt.Errorf("%w: unknown mode %d", ErrState, cfg.Mode)
}

// validateAndBlind runs the validation and blinding stages shared by the
// signed and ticketed contribution paths: predicate over (contribution,
// private), refusal below the measured threshold, then the configured
// blinding. The caller supplies the provisioned predicate state (fetched
// once per ECALL alongside whatever else the path needs). Runtime faults
// (index range, budget) are refusals, not infrastructure errors: a
// malformed contribution is an invalid one.
func validateAndBlind(env *tee.Env, cfg Config, req ContributionRequest,
	prog *predicate.Program, analysis *predicate.Analysis) (fixed.Vector, int64, error) {
	if len(req.Contribution) != cfg.Dim {
		return nil, 0, fmt.Errorf("%w: contribution dim %d != %d", ErrBadRequest, len(req.Contribution), cfg.Dim)
	}
	contribution := make([]int64, len(req.Contribution))
	for i, u := range req.Contribution {
		contribution[i] = int64(u)
	}
	private := make([]int64, len(req.Private))
	for i, u := range req.Private {
		private[i] = int64(u)
	}
	res, err := predicate.Run(prog, contribution, private, &predicate.Options{MaxSteps: analysis.CostBound})
	if err != nil || res.Verdict < cfg.minVerdict() {
		env.CounterIncrement("rejected")
		return nil, 0, ErrRejected
	}
	vec := make(fixed.Vector, len(req.Contribution))
	for i, u := range req.Contribution {
		vec[i] = fixed.Ring(u)
	}
	blinded, err := applyBlinding(env, cfg, vec, req.Round)
	if err != nil {
		return nil, 0, err
	}
	return blinded, res.Verdict, nil
}

// ecallContribute is the paper's Figure 3 pipeline: validate, blind, sign.
func ecallContribute(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	req, err := DecodeContribution(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	prog, analysis, signKey, err := provisionedState(env)
	if err != nil {
		return nil, err
	}
	blinded, confidence, err := validateAndBlind(env, cfg, req, prog, analysis)
	if err != nil {
		return nil, err
	}

	// Signing: endorse (blinded payload, round, measurement, confidence) so
	// the service can verify validation, provenance, and — for
	// confidence-valued predicates — how strongly the Glimmer vouches.
	sc := SignedContribution{
		ServiceName: cfg.ServiceName,
		Round:       req.Round,
		Measurement: env.Measurement(),
		Blinded:     blinded,
		Confidence:  confidence,
	}
	out, err := signAndEncode(signKey, &sc)
	if err != nil {
		return nil, err
	}
	env.CounterIncrement("accepted")
	return out, nil
}

// sealAndEncode writes a contribution's fields once and returns its
// transport encoding. The preimage of either variant's endorsement is a
// domain header followed by the fields, the transport encoding is the fields
// followed by the endorsement, so one buffer holds both and the encoding is
// its tail — the trick SignedView.PreimageParts and
// TicketedView.PreimageParts play in reverse. tag endorses the preimage: a
// signature, or a session MAC.
func sealAndEncode(header []byte, appendFields func(*wire.Writer), tag func(preimage []byte) ([]byte, error)) ([]byte, error) {
	w := getWriter()
	w.Raw(header)
	appendFields(w)
	endorsement, err := tag(w.Finish())
	if err != nil {
		w.Reset()
		writerPool.Put(w)
		return nil, err
	}
	w.Bytes(endorsement)
	return finishPooledFrom(w, len(header)), nil
}

// signAndEncode signs sc under key and returns its transport encoding.
func signAndEncode(key *xcrypto.SigningKey, sc *SignedContribution) ([]byte, error) {
	out, err := sealAndEncode(signedContributionHeader,
		func(w *wire.Writer) { appendSignedFields(w, sc) }, key.Sign)
	if err != nil {
		return nil, fmt.Errorf("glimmer: signing: %w", err)
	}
	return out, nil
}

// ecallDetect is the §4.1 bot-detection flow: run the (possibly
// confidential) predicate over private behavioural signals and emit a
// signed verdict carrying exactly one bit, in the public auditable format.
func ecallDetect(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	req, err := DecodeDetect(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	prog, analysis, signKey, err := provisionedState(env)
	if err != nil {
		return nil, err
	}
	private := make([]int64, len(req.Signals))
	for i, u := range req.Signals {
		private[i] = int64(u)
	}
	res, err := predicate.Run(prog, nil, private, &predicate.Options{MaxSteps: analysis.CostBound})
	human := err == nil && res.Verdict != 0

	v := Verdict{
		ServiceName: cfg.ServiceName,
		Challenge:   req.Challenge,
		Human:       human,
	}
	sig, err := signKey.Sign(v.SignedBytes())
	if err != nil {
		return nil, fmt.Errorf("glimmer: verdict signing: %w", err)
	}
	v.Signature = sig
	return EncodeVerdict(v), nil
}

// ecallPairwisePub returns the enclave's pairwise-blinding public key,
// generating the key on first use. The coordinator gathers these into the
// roster it later provisions.
func ecallPairwisePub(env *tee.Env, _ []byte) ([]byte, error) {
	if v, ok := env.GetObject(objParty + "/key"); ok {
		return v.(*xcrypto.DHKey).PublicBytes(), nil
	}
	dh, err := xcrypto.NewDHKey()
	if err != nil {
		return nil, fmt.Errorf("glimmer: pairwise key: %w", err)
	}
	if err := env.PutObject(objParty+"/key", dh); err != nil {
		return nil, err
	}
	return dh.PublicBytes(), nil
}

func installParty(env *tee.Env, index int, roster [][]byte) error {
	v, ok := env.GetObject(objParty + "/key")
	if !ok {
		return fmt.Errorf("%w: pairwise key not generated", ErrState)
	}
	dh := v.(*xcrypto.DHKey)
	if index < 0 || index >= len(roster) || !bytes.Equal(roster[index], dh.PublicBytes()) {
		return fmt.Errorf("%w: roster does not place this enclave at index %d", ErrBadRequest, index)
	}
	party, err := blind.NewParty(index, dh, roster)
	if err != nil {
		return err
	}
	return env.PutObject(objParty, party)
}

func provisionedState(env *tee.Env) (*predicate.Program, *predicate.Analysis, *xcrypto.SigningKey, error) {
	pv, ok := env.GetObject(objPredicate)
	if !ok {
		return nil, nil, nil, ErrNotProvisioned
	}
	av, ok := env.GetObject(objAnalysis)
	if !ok {
		return nil, nil, nil, ErrNotProvisioned
	}
	kv, ok := env.GetObject(objSignKey)
	if !ok {
		return nil, nil, nil, ErrNotProvisioned
	}
	return pv.(*predicate.Program), av.(*predicate.Analysis), kv.(*xcrypto.SigningKey), nil
}

func applyBlinding(env *tee.Env, cfg Config, vec fixed.Vector, round uint64) (fixed.Vector, error) {
	switch cfg.Mode {
	case ModeNone:
		return vec, nil
	case ModeDealer:
		mv, ok := env.GetObject(objMasks)
		if !ok {
			return nil, ErrNotProvisioned
		}
		masks := mv.(map[uint64]fixed.Vector)
		mask, ok := masks[round]
		if !ok {
			return nil, fmt.Errorf("%w: no mask for round %d", ErrNotProvisioned, round)
		}
		// One-time use: reusing a mask across rounds would let the service
		// difference two blinded contributions.
		delete(masks, round)
		out := vec.Clone()
		out.AddInPlace(mask)
		return out, nil
	case ModePairwise:
		pv, ok := env.GetObject(objParty)
		if !ok {
			return nil, ErrNotProvisioned
		}
		mask, err := pv.(*blind.Party).Mask(len(vec), round)
		if err != nil {
			return nil, err
		}
		out := vec.Clone()
		out.AddInPlace(mask)
		return out, nil
	}
	return nil, fmt.Errorf("%w: unknown mode", ErrState)
}
