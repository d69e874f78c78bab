package glimmer

import (
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Attested session tickets: the amortized-authentication fast path. The
// enclave signs one ticket request (a single signing operation, rooted in the
// same provisioned key that signs contributions), the service answers with
// a grant completing an X25519 exchange, and both sides derive a short-lived
// AES-256 session key bound to (service, ticket, round window, expiry).
// Every contribution that follows carries a 28-byte GMAC (xcrypto.MACSize:
// an enclave-drawn random nonce, then the tag) instead of a public-key
// signature — the far cheaper check the ingest hot path verifies on pooled
// scratches. The trust story is unchanged: the session key lives only
// inside the enclave (and the service's ticket table), so a MAC still
// proves the contribution passed validate→blind inside a vetted Glimmer;
// what moved is *when* the asymmetric work happens — once per session, as
// the paper's "attest once, endorse what follows" model licenses.

// ErrNoTicket is returned by the ticketed-contribution ECALL before a
// grant has been installed.
var ErrNoTicket = errors.New("glimmer: no session ticket installed")

// Enclave object-store keys for the ticket state.
const (
	objTicketDH = "ticket-dh"
	objTicket   = "ticket"
)

// ticketedMagic marks the third field of the ticketed wire variant. The
// field's length differs from a measurement's, so the two contribution
// encodings can never be confused for one another; the magic names the MAC
// scheme, so a contribution of an earlier one is refused as a bad header.
const ticketedMagic = "GTK2"

// ticketHeaderLen is the ticketed variant's third field: magic plus the
// 8-byte ticket ID.
const ticketHeaderLen = len(ticketedMagic) + 8

// TicketedContribution is the MAC'd sibling of SignedContribution: the same
// leading fields (service name, round — so PeekContributionService and
// PeekContributionRound route both variants identically), a ticket header
// in place of the measurement (provenance was checked once, at grant time),
// and a session MAC (nonce, then GMAC tag) in place of the signature.
type TicketedContribution struct {
	ServiceName string
	Round       uint64
	TicketID    uint64
	Blinded     fixed.Vector
	Confidence  int64
	MAC         []byte
}

// appendTicketedFields writes everything the MAC covers (after the domain
// header), which is also everything the transport encoding carries before
// the MAC field — the same preimage-recovery trick the signed variant uses.
func appendTicketedFields(w *wire.Writer, tc *TicketedContribution) {
	w.String(tc.ServiceName)
	w.Uint64(tc.Round)
	var hdr [ticketHeaderLen]byte
	copy(hdr[:], ticketedMagic)
	binary.BigEndian.PutUint64(hdr[len(ticketedMagic):], tc.TicketID)
	w.Bytes(hdr[:])
	appendVector(w, tc.Blinded)
	w.Uint64(uint64(tc.Confidence))
}

// ticketedDomain separates the ticketed MAC preimage from every other
// signed/MAC'd byte string in the system; ticketedHeader is its encoded
// form, the head segment of TicketedView.PreimageParts.
const ticketedDomain = "glimmers/ticketed/v2"

var ticketedHeader = wire.NewWriter().String(ticketedDomain).Finish()

// MACBytes returns the byte string the MAC covers.
func (tc TicketedContribution) MACBytes() []byte {
	w := getWriter()
	w.String(ticketedDomain)
	appendTicketedFields(w, &tc)
	return finishPooled(w)
}

// EncodeTicketedContribution serializes the full message.
func EncodeTicketedContribution(tc TicketedContribution) []byte {
	w := getWriter()
	appendTicketedFields(w, &tc)
	w.Bytes(tc.MAC)
	return finishPooled(w)
}

// SealTicketedContribution MACs the contribution under a ticket's AEAD
// (xcrypto.NewSessionAEAD) and returns the encoded message — the enclave's
// (and tests') one-stop seal. The MAC covers the contiguous preimage
// sealAndEncode builds, under a fresh nonce, so sealing one contribution
// twice gives two different messages.
func SealTicketedContribution(tc TicketedContribution, aead cipher.AEAD) []byte {
	out, _ := sealAndEncode(ticketedHeader, // no error: a MAC cannot fail
		func(w *wire.Writer) { appendTicketedFields(w, &tc) },
		func(preimage []byte) ([]byte, error) {
			return xcrypto.AppendSessionMAC(nil, aead, preimage), nil
		})
	return out
}

// DecodeTicketedContribution reverses EncodeTicketedContribution into an
// independent copy. It materializes what TicketedView.Decode reads, so the
// two accept and refuse exactly the same inputs; the ingest path stays on
// the view and never builds the vector at all.
func DecodeTicketedContribution(data []byte) (TicketedContribution, error) {
	var v TicketedView
	if err := v.Decode(data); err != nil {
		return TicketedContribution{}, err
	}
	tc := TicketedContribution{
		ServiceName: string(v.ServiceName),
		Round:       v.Round,
		TicketID:    v.TicketID,
		Blinded:     make(fixed.Vector, v.Lanes()),
		Confidence:  v.Confidence,
		MAC:         append([]byte(nil), v.MAC...),
	}
	fixed.AccumulateWireInto(tc.Blinded, v.LaneBytes)
	return tc, nil
}

// PeekContributionTicketed reports whether raw encodes the ticketed
// (MAC'd) contribution variant rather than the signed one, without
// allocating. Routers and pipelines dispatch on it, by the length of the
// third field alone; any malformation, the magic included, is left for the
// full decode of whichever path is chosen.
func PeekContributionTicketed(data []byte) bool {
	var r wire.Reader
	r.Reset(data)
	r.SkipBytes() // service name
	r.Uint64()    // round
	hdr := r.BytesView()
	return r.Err() == nil && len(hdr) == ticketHeaderLen
}

// sessionTicket is the enclave-held half of a granted ticket: its AEAD,
// built once at install, seals every contribution of the session.
type sessionTicket struct {
	id                    uint64
	aead                  cipher.AEAD
	roundFirst, roundLast uint64
	expiresUnix           uint64
}

// EncodeTicketWindow encodes the host's input to the "ticket-request"
// ECALL: the round window the session wants.
func EncodeTicketWindow(first, last uint64) []byte {
	return wire.NewWriter().Uint64(first).Uint64(last).Finish()
}

func decodeTicketWindow(data []byte) (first, last uint64, err error) {
	r := wire.NewReader(data)
	first, last = r.Uint64(), r.Uint64()
	if err := r.Done(); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return first, last, nil
}

// ecallTicketRequest builds the session's signed ticket request: a fresh
// X25519 value, the enclave's own measurement, and the requested round
// window, signed with the provisioned contribution key — the one asymmetric
// operation the whole session pays.
func ecallTicketRequest(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	first, last, err := decodeTicketWindow(input)
	if err != nil {
		return nil, err
	}
	if last < first {
		return nil, fmt.Errorf("%w: round window [%d, %d]", ErrBadRequest, first, last)
	}
	_, _, signKey, err := provisionedState(env)
	if err != nil {
		return nil, err
	}
	dh, err := xcrypto.NewDHKey()
	if err != nil {
		return nil, fmt.Errorf("glimmer: ticket DH key: %w", err)
	}
	meas := env.Measurement()
	req := wire.TicketRequest{
		Service:     cfg.ServiceName,
		DevicePub:   dh.PublicBytes(),
		Measurement: meas[:],
		RoundFirst:  first,
		RoundLast:   last,
	}
	sig, err := signKey.Sign(req.SignedBytes())
	if err != nil {
		return nil, fmt.Errorf("glimmer: ticket request signing: %w", err)
	}
	req.Signature = sig
	if err := env.PutObject(objTicketDH, dh); err != nil {
		return nil, err
	}
	return wire.EncodeTicketRequest(req), nil
}

// ecallTicketInstall completes the exchange: derive the session key from
// the grant's server value and the pending device key, and make the ticket
// the session's active one. A tampered grant (wrong ServerPub, respelled
// identity) merely derives a key whose MACs the service will never accept.
func ecallTicketInstall(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	grant, err := wire.DecodeTicketGrant(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if grant.Service != cfg.ServiceName {
		return nil, fmt.Errorf("%w: grant for service %q", ErrBadRequest, grant.Service)
	}
	v, ok := env.GetObject(objTicketDH)
	if !ok {
		return nil, fmt.Errorf("%w: no ticket request in flight", ErrState)
	}
	dh := v.(*xcrypto.DHKey)
	shared, err := dh.Shared(grant.ServerPub)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	env.DeleteObject(objTicketDH)
	key := xcrypto.DeriveTicketKey(shared, cfg.ServiceName, grant.ID)
	t := sessionTicket{
		id:          grant.ID,
		aead:        xcrypto.NewSessionAEAD(&key),
		roundFirst:  grant.RoundFirst,
		roundLast:   grant.RoundLast,
		expiresUnix: grant.ExpiresUnix,
	}
	return nil, env.PutObject(objTicket, t)
}

// ecallContributeTicketed is the fast-path sibling of ecallContribute: the
// same validate→blind pipeline, sealed with the session MAC instead of a
// signature. The enclave MACs whatever round the host names — round
// acceptance is the service's call (window, expiry, lifecycle), exactly as
// it is for signed contributions.
func ecallContributeTicketed(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	v, ok := env.GetObject(objTicket)
	if !ok {
		return nil, ErrNoTicket
	}
	ticket := v.(sessionTicket)
	req, err := DecodeContribution(input)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// The signing key goes unused here, but requiring full provisioning
	// keeps the ticketed path's lifecycle identical to the signed one's.
	prog, analysis, _, err := provisionedState(env)
	if err != nil {
		return nil, err
	}
	blinded, confidence, err := validateAndBlind(env, cfg, req, prog, analysis)
	if err != nil {
		return nil, err
	}
	tc := TicketedContribution{
		ServiceName: cfg.ServiceName,
		Round:       req.Round,
		TicketID:    ticket.id,
		Blinded:     blinded,
		Confidence:  confidence,
	}
	env.CounterIncrement("accepted")
	return SealTicketedContribution(tc, ticket.aead), nil
}
