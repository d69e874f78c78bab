package glimmer

import (
	"fmt"

	"glimmers/internal/attest"
	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The enclave-hosted blinding dealer of §3: "Assume the existence of a
// trusted blinding service — which could, itself, be implemented as a
// separate enclave on one of the clients — that computes N random blinding
// values pᵢ such that Σpᵢ = 0. It then seals each pᵢ value to the Glimmer
// code, and encrypts one of the sealed values to each of N clients' public
// keys."
//
// Realization: each client Glimmer opens a mutually attested channel to the
// dealer enclave (the Glimmer proves it is vetted Glimmer code; the dealer
// proves it is the vetted dealer). The dealer draws the zero-sum masks from
// hardware randomness inside its enclave and ships mask i to client i over
// session i. The host that shuttles the records sees only ciphertext, and
// only genuine Glimmer enclaves can receive masks — the modern equivalent
// of "sealed to the Glimmer code". The dealer is the only holder of every
// mask: the one thing it tells the host is reveal's sum over the devices
// the host names as absent from a round, once per round, which is what the
// aggregator needs to correct for dropouts.

// DealerVersion is the dealer enclave's code identity version.
const DealerVersion = "glimmer-dealer/1.0"

// DealerContext is the attested-channel context between Glimmers and the
// dealer.
func DealerContext(serviceName string) string {
	return "glimmers/dealer/v1/" + serviceName
}

// DealerConfig fixes a dealer enclave's identity; it is folded into the
// dealer's measurement.
type DealerConfig struct {
	// ServiceName scopes the dealer to one service's cohorts.
	ServiceName string
	// Cohort labels the deployment (e.g. an epoch or region); it is part
	// of the measurement, so a service vouches for one specific cohort's
	// dealer.
	Cohort string
	// AttestationRoot is the PKIX DER of the attestation-service root the
	// dealer uses to verify client quotes.
	AttestationRoot []byte
	// AllowedClient is the vetted Glimmer measurement masks may go to.
	AllowedClient tee.Measurement
	// Seed, when set, makes the dealing reproducible: round r's masks are
	// blind.ZeroSumMasks(Seed‖"/masks/"‖r). It is for seeded runs only —
	// anyone who knows it knows every mask — and, being measured, it gives
	// a seeded dealer a measurement no unseeded deployment vouches for.
	// Empty, the dealer draws each round from in-enclave randomness.
	Seed []byte
}

func (c DealerConfig) encode() []byte {
	return wire.NewWriter().
		String(c.ServiceName).
		String(c.Cohort).
		Bytes(c.AttestationRoot).
		Bytes(c.AllowedClient[:]).
		Bytes(c.Seed).
		Finish()
}

// Dealer enclave object-store keys.
const (
	objDealerConfig   = "dealer-config"
	objDealerSessions = "dealer-sessions"
	// objDealerRounds maps each dealt round to its masks by cohort index;
	// a revealed round maps to nil.
	objDealerRounds = "dealer-rounds"
)

// BuildDealerBinary constructs the dealer enclave.
func BuildDealerBinary(cfg DealerConfig) *tee.Binary {
	code := append([]byte(DealerVersion+"\x00"), cfg.encode()...)
	b := tee.NewBinary("glimmer-dealer", DealerVersion, code)
	b.OnInit(func(env *tee.Env, _ []byte) ([]byte, error) {
		if err := env.PutObject(objDealerConfig, cfg); err != nil {
			return nil, err
		}
		if err := env.PutObject(objDealerRounds, map[uint64][]fixed.Vector{}); err != nil {
			return nil, err
		}
		return nil, env.PutObject(objDealerSessions, map[uint32]*attest.Session{})
	})
	b.Define("enroll", ecallDealerEnroll)
	b.Define("distribute", ecallDealerDistribute)
	b.Define("reveal", ecallDealerReveal)
	return b
}

// ecallDealerEnroll admits one client Glimmer into the cohort: input is
// {index, client hello}; the dealer verifies the client's quote against the
// vetted Glimmer measurement and answers with its own attested response.
func ecallDealerEnroll(env *tee.Env, input []byte) ([]byte, error) {
	cfgV, ok := env.GetObject(objDealerConfig)
	if !ok {
		return nil, fmt.Errorf("%w: dealer config missing", ErrState)
	}
	cfg := cfgV.(DealerConfig)
	r := wire.NewReader(input)
	index := r.Uint32()
	helloBytes := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	hello, err := attest.DecodeHello(helloBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	root, err := xcrypto.ParseVerifyKey(cfg.AttestationRoot)
	if err != nil {
		return nil, fmt.Errorf("%w: dealer root key: %v", ErrState, err)
	}
	verifier := &tee.QuoteVerifier{Root: root, Allowed: []tee.Measurement{cfg.AllowedClient}}
	session, resp, err := attest.RespondFromEnclave(env, hello, verifier, DealerContext(cfg.ServiceName))
	if err != nil {
		return nil, err
	}
	sessionsV, _ := env.GetObject(objDealerSessions)
	sessions := sessionsV.(map[uint32]*attest.Session)
	if _, dup := sessions[index]; dup {
		return nil, fmt.Errorf("%w: cohort index %d already enrolled", ErrBadRequest, index)
	}
	sessions[index] = session
	return attest.EncodeHello(resp), nil
}

// ecallDealerDistribute draws zero-sum masks for the enrolled cohort, keeps
// them for reveal, and returns one encrypted record per client, in index
// order. A round is dealt once. Input: {dim, round}.
func ecallDealerDistribute(env *tee.Env, input []byte) ([]byte, error) {
	r := wire.NewReader(input)
	dim := r.Uint32()
	round := r.Uint64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	cfgV, _ := env.GetObject(objDealerConfig)
	cfg := cfgV.(DealerConfig)
	sessionsV, _ := env.GetObject(objDealerSessions)
	sessions := sessionsV.(map[uint32]*attest.Session)
	roundsV, _ := env.GetObject(objDealerRounds)
	rounds := roundsV.(map[uint64][]fixed.Vector)
	n := len(sessions)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty cohort", ErrState)
	}
	if _, dealt := rounds[round]; dealt {
		return nil, fmt.Errorf("%w: round %d already dealt", ErrBadRequest, round)
	}
	seed := fmt.Appendf(nil, "%s/masks/%d", cfg.Seed, round)
	if len(cfg.Seed) == 0 {
		// Hardware randomness for the dealing seed: the host never sees it.
		seed = make([]byte, 32)
		if err := env.Rand(seed); err != nil {
			return nil, err
		}
	}
	masks, err := blind.ZeroSumMasks(seed, n, int(dim))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	out := wire.NewWriter()
	out.Uint32(uint32(n))
	for i := 0; i < n; i++ {
		session, ok := sessions[uint32(i)]
		if !ok {
			return nil, fmt.Errorf("%w: cohort indices not contiguous (missing %d)", ErrState, i)
		}
		record, err := session.Send(wire.NewWriter().
			Uint64(round).
			Uint64s(VectorToBits(masks[i])).
			Finish())
		if err != nil {
			return nil, err
		}
		out.Uint32(uint32(i))
		out.Bytes(record)
	}
	rounds[round] = masks
	return out.Finish(), nil
}

// ecallDealerReveal returns the sum of the named cohort members' masks for
// a dealt round: the correction an aggregator applies for devices whose
// contributions never entered the round. Each round answers once, so the
// host cannot difference two answers. Input: {round, indices}.
func ecallDealerReveal(env *tee.Env, input []byte) ([]byte, error) {
	r := wire.NewReader(input)
	round := r.Uint64()
	absent := r.Uint64s()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	roundsV, _ := env.GetObject(objDealerRounds)
	rounds := roundsV.(map[uint64][]fixed.Vector)
	masks, dealt := rounds[round]
	switch {
	case !dealt:
		return nil, fmt.Errorf("%w: round %d was never dealt", ErrBadRequest, round)
	case masks == nil:
		return nil, fmt.Errorf("%w: round %d already revealed", ErrBadRequest, round)
	}
	sum := fixed.NewVector(len(masks[0]))
	seen := make(map[uint64]bool, len(absent))
	for _, i := range absent {
		if i >= uint64(len(masks)) || seen[i] {
			return nil, fmt.Errorf("%w: absent index %d is out of range or repeated", ErrBadRequest, i)
		}
		seen[i] = true
		sum.AddInPlace(masks[i])
	}
	rounds[round] = nil
	return wire.NewWriter().Uint64s(VectorToBits(sum)).Finish(), nil
}

// Client-side (Glimmer) dealer ECALLs, defined on the standard binary.

const objDealerHS = "dealer-hs"

// ecallDealerHello opens the Glimmer's attested channel to the dealer.
func ecallDealerHello(env *tee.Env, _ []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	key, hello, err := attest.NewEnclaveHello(env, DealerContext(cfg.ServiceName))
	if err != nil {
		return nil, err
	}
	if err := env.PutObject(objDealerHS, key); err != nil {
		return nil, err
	}
	return attest.EncodeHello(hello), nil
}

// ecallDealerComplete finishes the dealer handshake. Input: {dealer
// measurement (32 bytes, as provisioned by the service), dealer response}.
// The Glimmer only accepts dealers whose measurement the service vouched
// for — provisioned over the already-authenticated service session.
func ecallDealerComplete(env *tee.Env, input []byte) ([]byte, error) {
	r := wire.NewReader(input)
	respBytes := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	hsV, ok := env.GetObject(objDealerHS)
	if !ok {
		return nil, fmt.Errorf("%w: no dealer handshake in progress", ErrState)
	}
	key := hsV.(*attest.EnclaveKey)
	dmV, ok := env.GetObject(objDealerMeasurement)
	if !ok {
		return nil, fmt.Errorf("%w: no dealer measurement provisioned", ErrNotProvisioned)
	}
	rootV, ok := env.GetObject(objDealerRoot)
	if !ok {
		return nil, fmt.Errorf("%w: no attestation root provisioned", ErrNotProvisioned)
	}
	root, err := xcrypto.ParseVerifyKey(rootV.([]byte))
	if err != nil {
		return nil, fmt.Errorf("%w: provisioned root: %v", ErrState, err)
	}
	resp, err := attest.DecodeHello(respBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	verifier := &tee.QuoteVerifier{Root: root, Allowed: []tee.Measurement{dmV.(tee.Measurement)}}
	session, err := key.CompleteAttested(resp, verifier)
	if err != nil {
		return nil, err
	}
	env.DeleteObject(objDealerHS)
	return nil, env.PutObject(objDealerSession, session)
}

const (
	objDealerSession     = "dealer-session"
	objDealerMeasurement = "dealer-measurement"
	objDealerRoot        = "dealer-root"
)

// ecallInstallMask decrypts a dealer mask record and stores the mask for
// its round.
func ecallInstallMask(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	sessV, ok := env.GetObject(objDealerSession)
	if !ok {
		return nil, fmt.Errorf("%w: no dealer session", ErrState)
	}
	plaintext, err := sessV.(*attest.Session).Recv(input)
	if err != nil {
		return nil, fmt.Errorf("%w: dealer record: %v", ErrBadRequest, err)
	}
	r := wire.NewReader(plaintext)
	round := r.Uint64()
	bits := r.Uint64s()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(bits) != cfg.Dim {
		return nil, fmt.Errorf("%w: mask dim %d != %d", ErrBadRequest, len(bits), cfg.Dim)
	}
	mask := make(fixed.Vector, len(bits))
	for i, b := range bits {
		mask[i] = fixed.Ring(b)
	}
	var masks map[uint64]fixed.Vector
	if mv, ok := env.GetObject(objMasks); ok {
		masks = mv.(map[uint64]fixed.Vector)
	} else {
		masks = make(map[uint64]fixed.Vector)
	}
	masks[round] = mask
	return nil, env.PutObject(objMasks, masks)
}

// Host-side orchestration.

// DealerHost is the host handle to a dealer enclave.
type DealerHost struct {
	enclave *tee.Enclave
}

// NewDealerHost loads a dealer enclave on a platform.
func NewDealerHost(p *tee.Platform, cfg DealerConfig, opts ...tee.LoadOption) (*DealerHost, error) {
	enclave, err := p.Load(BuildDealerBinary(cfg), opts...)
	if err != nil {
		return nil, fmt.Errorf("glimmer: load dealer: %w", err)
	}
	return &DealerHost{enclave: enclave}, nil
}

// Destroy tears down the dealer enclave and every mask it holds.
func (d *DealerHost) Destroy() { d.enclave.Destroy() }

// Measurement returns the dealer's measurement (what services vouch for).
func (d *DealerHost) Measurement() tee.Measurement { return d.enclave.Measurement() }

// Enroll admits a client's dealer-hello at the given cohort index and
// returns the dealer's attested response.
func (d *DealerHost) Enroll(index uint32, clientHello []byte) ([]byte, error) {
	return d.enclave.Call("enroll", wire.NewWriter().Uint32(index).Bytes(clientHello).Finish())
}

// Distribute deals zero-sum masks of the given dimension for a round,
// returning one opaque record per enrolled client, keyed by cohort index.
func (d *DealerHost) Distribute(dim int, round uint64) (map[uint32][]byte, error) {
	out, err := d.enclave.Call("distribute", wire.NewWriter().Uint32(uint32(dim)).Uint64(round).Finish())
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(out)
	n := r.Uint32()
	records := make(map[uint32][]byte, n)
	for i := uint32(0); i < n; i++ {
		idx := r.Uint32()
		records[idx] = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("glimmer: dealer output: %w", err)
	}
	return records, nil
}

// Reveal returns the sum of the absent cohort members' masks for a dealt
// round. The dealer answers each round once, and refuses a round it never
// dealt or an index that is out of range or repeated.
func (d *DealerHost) Reveal(round uint64, absent []uint32) (fixed.Vector, error) {
	indices := make([]uint64, len(absent))
	for i, a := range absent {
		indices[i] = uint64(a)
	}
	out, err := d.enclave.Call("reveal", wire.NewWriter().Uint64(round).Uint64s(indices).Finish())
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(out)
	bits := r.Uint64s()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("glimmer: dealer reveal: %w", err)
	}
	sum := make(fixed.Vector, len(bits))
	for i, b := range bits {
		sum[i] = fixed.Ring(b)
	}
	return sum, nil
}

// Device-side wrappers.

// DealerHello opens the device Glimmer's channel to a dealer.
func (d *Device) DealerHello() ([]byte, error) {
	return d.enclave.Call("dealer-hello", nil)
}

// DealerComplete finishes the dealer handshake with the dealer's response.
func (d *Device) DealerComplete(response []byte) error {
	_, err := d.enclave.Call("dealer-complete", wire.NewWriter().Bytes(response).Finish())
	return err
}

// InstallMask feeds one dealer mask record into the Glimmer.
func (d *Device) InstallMask(record []byte) error {
	_, err := d.enclave.Call("install-mask", record)
	return err
}
