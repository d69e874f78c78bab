package glimmer

import (
	"crypto/sha256"
	"fmt"

	"glimmers/internal/attest"
	"glimmers/internal/fixed"
	"glimmers/internal/predicate"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The decomposed Glimmer: §3 notes that "to increase ease of verification,
// the Glimmer can be decomposed so that each component runs in its own
// enclave. Naturally, communication between components must now also be
// secured." This file implements that configuration: three enclaves —
// Validation, Blinding, Signing — each small enough to verify in isolation,
// chained by local-attestation-secured channels. The host shuttles opaque
// records between them and learns nothing; tampering with a record breaks
// the chain.
//
// Trust between components is anchored in the binary signer (the MRSIGNER
// analogue): all three binaries carry the same vendor signature, and each
// component only links with a same-signer enclave declaring the expected
// role. Experiment E6 measures what this buys and costs: three times the
// enclaves, about three times the transitions per contribution.

// Role identifies a component in the decomposed pipeline.
type Role byte

// Pipeline roles, in data-flow order.
const (
	RoleValidator Role = 1
	RoleBlinder   Role = 2
	RoleSigner    Role = 3
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleValidator:
		return "validator"
	case RoleBlinder:
		return "blinder"
	case RoleSigner:
		return "signer"
	}
	return fmt.Sprintf("role(%d)", byte(r))
}

// Object-store keys for links.
const (
	objLinkUp     = "link-up"     // session with the upstream component
	objLinkDown   = "link-down"   // session with the downstream component
	objLinkDH     = "link-dh"     // in-flight link handshake state
	objRole       = "role"        //
	objExpectUp   = "expect-up"   // role required of the upstream peer
	objExpectDown = "expect-down" // role required of the downstream peer
)

func linkBinding(role Role, dhPub []byte) [48]byte {
	h := sha256.New()
	h.Write([]byte("glimmers/link/v1\x00"))
	h.Write([]byte{byte(role)})
	h.Write(dhPub)
	var out [48]byte
	h.Sum(out[:0])
	out[32] = byte(role)
	return out
}

func encodeLinkMsg(role Role, dhPub []byte, report tee.Report) []byte {
	w := wire.NewWriter()
	w.Byte(byte(role))
	w.Bytes(dhPub)
	w.Bytes(report.Measurement[:])
	w.Bytes(report.Signer[:])
	w.Bytes(report.Platform[:])
	w.Bytes(report.Data[:])
	w.Bytes(report.MAC[:])
	return w.Finish()
}

func decodeLinkMsg(data []byte) (Role, []byte, tee.Report, error) {
	r := wire.NewReader(data)
	role := Role(r.Byte())
	dhPub := r.Bytes()
	var rep tee.Report
	fields := [][]byte{r.Bytes(), r.Bytes(), r.Bytes(), r.Bytes(), r.Bytes()}
	if err := r.Done(); err != nil {
		return 0, nil, rep, fmt.Errorf("glimmer: link message: %w", err)
	}
	if len(fields[0]) != 32 || len(fields[1]) != 32 || len(fields[2]) != 16 ||
		len(fields[3]) != tee.ReportDataSize || len(fields[4]) != 32 {
		return 0, nil, rep, fmt.Errorf("glimmer: link message field widths")
	}
	copy(rep.Measurement[:], fields[0])
	copy(rep.Signer[:], fields[1])
	copy(rep.Platform[:], fields[2])
	copy(rep.Data[:], fields[3])
	copy(rep.MAC[:], fields[4])
	return role, dhPub, rep, nil
}

// verifyLinkPeer checks a link message came from a genuine same-signer
// enclave declaring the expected role, with the DH value bound into the
// report.
func verifyLinkPeer(env *tee.Env, expect Role, role Role, dhPub []byte, rep tee.Report) error {
	if role != expect {
		return fmt.Errorf("%w: peer declares role %s, want %s", ErrState, role, expect)
	}
	if !env.VerifyReport(rep) {
		return fmt.Errorf("%w: peer report invalid", ErrState)
	}
	if rep.Signer != env.SignerID() || rep.Signer == (tee.SignerID{}) {
		return fmt.Errorf("%w: peer not signed by our vendor", ErrState)
	}
	want := linkBinding(role, dhPub)
	var got [48]byte
	copy(got[:], rep.Data[:48])
	if got != want {
		return fmt.Errorf("%w: link binding mismatch", ErrState)
	}
	return nil
}

func linkTranscript(initPub, respPub []byte) [32]byte {
	h := sha256.New()
	h.Write([]byte("glimmers/link-transcript/v1\x00"))
	h.Write(initPub)
	h.Write(respPub)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ecallLinkInit runs on the upstream component: it offers a DH value bound
// into a local report.
func ecallLinkInit(env *tee.Env, _ []byte) ([]byte, error) {
	roleV, _ := env.GetObject(objRole)
	role := roleV.(Role)
	dh, err := xcrypto.NewDHKey()
	if err != nil {
		return nil, fmt.Errorf("glimmer: link init: %w", err)
	}
	if err := env.PutObject(objLinkDH, dh); err != nil {
		return nil, err
	}
	binding := linkBinding(role, dh.PublicBytes())
	rep, err := env.NewReport(binding[:])
	if err != nil {
		return nil, err
	}
	return encodeLinkMsg(role, dh.PublicBytes(), rep), nil
}

// ecallLinkAccept runs on the downstream component: it verifies the
// upstream offer and answers with its own bound DH value.
func ecallLinkAccept(env *tee.Env, input []byte) ([]byte, error) {
	roleV, _ := env.GetObject(objRole)
	role := roleV.(Role)
	expectV, ok := env.GetObject(objExpectUp)
	if !ok {
		return nil, fmt.Errorf("%w: component has no upstream", ErrState)
	}
	peerRole, peerPub, peerRep, err := decodeLinkMsg(input)
	if err != nil {
		return nil, err
	}
	if err := verifyLinkPeer(env, expectV.(Role), peerRole, peerPub, peerRep); err != nil {
		return nil, err
	}
	dh, err := xcrypto.NewDHKey()
	if err != nil {
		return nil, fmt.Errorf("glimmer: link accept: %w", err)
	}
	shared, err := dh.Shared(peerPub)
	if err != nil {
		return nil, err
	}
	session := attest.NewSessionFromSecret(shared, linkTranscript(peerPub, dh.PublicBytes()), false)
	if err := env.PutObject(objLinkUp, session); err != nil {
		return nil, err
	}
	binding := linkBinding(role, dh.PublicBytes())
	rep, err := env.NewReport(binding[:])
	if err != nil {
		return nil, err
	}
	return encodeLinkMsg(role, dh.PublicBytes(), rep), nil
}

// ecallLinkFinish runs on the upstream component with the downstream answer.
func ecallLinkFinish(env *tee.Env, input []byte) ([]byte, error) {
	expectV, ok := env.GetObject(objExpectDown)
	if !ok {
		return nil, fmt.Errorf("%w: component has no downstream", ErrState)
	}
	dhV, ok := env.GetObject(objLinkDH)
	if !ok {
		return nil, fmt.Errorf("%w: no link handshake in progress", ErrState)
	}
	dh := dhV.(*xcrypto.DHKey)
	peerRole, peerPub, peerRep, err := decodeLinkMsg(input)
	if err != nil {
		return nil, err
	}
	if err := verifyLinkPeer(env, expectV.(Role), peerRole, peerPub, peerRep); err != nil {
		return nil, err
	}
	shared, err := dh.Shared(peerPub)
	if err != nil {
		return nil, err
	}
	session := attest.NewSessionFromSecret(shared, linkTranscript(dh.PublicBytes(), peerPub), true)
	env.DeleteObject(objLinkDH)
	if err := env.PutObject(objLinkDown, session); err != nil {
		return nil, err
	}
	return nil, nil
}

func linkSession(env *tee.Env, key string) (*attest.Session, error) {
	v, ok := env.GetObject(key)
	if !ok {
		return nil, fmt.Errorf("%w: component link not established", ErrState)
	}
	return v.(*attest.Session), nil
}

// stage payload between components: {round, confidence, vector bits}.
func encodeStage(round uint64, confidence int64, bits []uint64) []byte {
	return wire.NewWriter().Uint64(round).Uint64(uint64(confidence)).Uint64s(bits).Finish()
}

func decodeStage(data []byte) (uint64, int64, []uint64, error) {
	r := wire.NewReader(data)
	round := r.Uint64()
	confidence := int64(r.Uint64())
	bits := r.Uint64s()
	if err := r.Done(); err != nil {
		return 0, 0, nil, fmt.Errorf("glimmer: stage payload: %w", err)
	}
	return round, confidence, bits, nil
}

// ecallValidate is the validator component's pipeline stage.
func ecallValidate(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	req, err := DecodeContribution(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(req.Contribution) != cfg.Dim {
		return nil, fmt.Errorf("%w: contribution dim %d != %d", ErrBadRequest, len(req.Contribution), cfg.Dim)
	}
	pv, ok := env.GetObject(objPredicate)
	if !ok {
		return nil, ErrNotProvisioned
	}
	av, ok := env.GetObject(objAnalysis)
	if !ok {
		return nil, ErrNotProvisioned
	}
	prog, analysis := pv.(*predicate.Program), av.(*predicate.Analysis)

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
		return nil, ErrRejected
	}
	down, err := linkSession(env, objLinkDown)
	if err != nil {
		return nil, err
	}
	return down.Send(encodeStage(req.Round, res.Verdict, req.Contribution))
}

// ecallBlind is the blinder component's pipeline stage.
func ecallBlind(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	up, err := linkSession(env, objLinkUp)
	if err != nil {
		return nil, err
	}
	plaintext, err := up.Recv(input)
	if err != nil {
		return nil, fmt.Errorf("%w: upstream record: %v", ErrBadRequest, err)
	}
	round, confidence, bits, err := decodeStage(plaintext)
	if err != nil {
		return nil, err
	}
	vec := make(fixed.Vector, len(bits))
	for i, b := range bits {
		vec[i] = fixed.Ring(b)
	}
	blinded, err := applyBlinding(env, cfg, vec, round)
	if err != nil {
		return nil, err
	}
	down, err := linkSession(env, objLinkDown)
	if err != nil {
		return nil, err
	}
	return down.Send(encodeStage(round, confidence, VectorToBits(blinded)))
}

// ecallSign is the signer component's pipeline stage.
func ecallSign(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	up, err := linkSession(env, objLinkUp)
	if err != nil {
		return nil, err
	}
	plaintext, err := up.Recv(input)
	if err != nil {
		return nil, fmt.Errorf("%w: upstream record: %v", ErrBadRequest, err)
	}
	round, confidence, bits, err := decodeStage(plaintext)
	if err != nil {
		return nil, err
	}
	kv, ok := env.GetObject(objSignKey)
	if !ok {
		return nil, ErrNotProvisioned
	}
	signKey := kv.(*xcrypto.SigningKey)
	blinded := make(fixed.Vector, len(bits))
	for i, b := range bits {
		blinded[i] = fixed.Ring(b)
	}
	sc := SignedContribution{
		ServiceName: cfg.ServiceName,
		Round:       round,
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
