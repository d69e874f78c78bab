package wire

import (
	"errors"
	"fmt"
)

// Ticket codecs: the attested-session-ticket control plane. A device-side
// Glimmer enclave signs one TicketRequest (the single asymmetric operation
// of a session); the service answers with a TicketGrant carrying no secret
// at all — both sides derive the AES-256 session key, whose GMAC tags
// endorse the session's contributions, from the X25519 exchange the
// request/grant pair completes. The encodings are public and auditable
// like every other message in the system, and frozen by golden fixtures.

// DHPublicLen is the length of an X25519 public value.
const DHPublicLen = 32

// MeasurementLen is the length of an enclave measurement as it appears in
// wire messages.
const MeasurementLen = 32

// ErrTicket is the decode-failure sentinel both ticket codecs wrap.
var ErrTicket = errors.New("wire: malformed ticket message")

// TicketRequest asks a service for a contribution session ticket. The
// enclave signs it with the provisioned contribution-signing key, so one
// signature verification vouches for everything the session later MACs.
type TicketRequest struct {
	// Service names the tenant the ticket is for; the signature covers it,
	// so a request replayed to another tenant can never verify.
	Service string
	// DevicePub is the enclave's fresh X25519 public value. The session key
	// derives from the DH exchange, so a captured request (or grant) is
	// useless without the enclave-held private value.
	DevicePub []byte
	// Measurement is the requesting enclave's measurement; the service
	// applies its allowlist here, once per session, instead of per message.
	Measurement []byte
	// RoundFirst and RoundLast bound the aggregation rounds the session
	// wants to contribute to. The service may clamp the span.
	RoundFirst uint64
	RoundLast  uint64
	// Signature is the enclave's signature over SignedBytes.
	Signature []byte
}

// SignedBytes returns the byte string the request signature covers.
func (t TicketRequest) SignedBytes() []byte {
	w := NewWriter()
	w.String("glimmers/ticket-request/v1")
	w.String(t.Service)
	w.Bytes(t.DevicePub)
	w.Bytes(t.Measurement)
	w.Uint64(t.RoundFirst)
	w.Uint64(t.RoundLast)
	return w.Finish()
}

// EncodeTicketRequest serializes the full request.
func EncodeTicketRequest(t TicketRequest) []byte {
	w := NewWriter()
	w.String(t.Service)
	w.Bytes(t.DevicePub)
	w.Bytes(t.Measurement)
	w.Uint64(t.RoundFirst)
	w.Uint64(t.RoundLast)
	w.Bytes(t.Signature)
	return w.Finish()
}

// DecodeTicketRequest reverses EncodeTicketRequest, enforcing the fixed
// field lengths so a malformed request is refused before any crypto runs.
func DecodeTicketRequest(data []byte) (TicketRequest, error) {
	r := NewReader(data)
	t := TicketRequest{
		Service:     r.String(),
		DevicePub:   r.Bytes(),
		Measurement: r.Bytes(),
		RoundFirst:  r.Uint64(),
		RoundLast:   r.Uint64(),
		Signature:   r.Bytes(),
	}
	if err := r.Done(); err != nil {
		return t, fmt.Errorf("%w: request: %v", ErrTicket, err)
	}
	if len(t.DevicePub) != DHPublicLen {
		return t, fmt.Errorf("%w: device public value is %d bytes", ErrTicket, len(t.DevicePub))
	}
	if len(t.Measurement) != MeasurementLen {
		return t, fmt.Errorf("%w: measurement is %d bytes", ErrTicket, len(t.Measurement))
	}
	return t, nil
}

// TicketGrant is the service's answer: the ticket identity, the service's
// ephemeral X25519 value, and the granted bounds. It carries no secret, so
// it may travel in the clear; tampering with it can only produce a session
// whose MACs never verify.
type TicketGrant struct {
	// Service echoes the tenant the ticket is valid for.
	Service string
	// ID is the ticket identity every MAC'd contribution names.
	ID uint64
	// ServerPub is the service's ephemeral X25519 public value.
	ServerPub []byte
	// RoundFirst and RoundLast are the granted round window, possibly
	// clamped from the request.
	RoundFirst uint64
	RoundLast  uint64
	// ExpiresUnix is the absolute expiry (Unix seconds); the service
	// refuses the ticket's MACs after it.
	ExpiresUnix uint64
}

// EncodeTicketGrant serializes the grant.
func EncodeTicketGrant(t TicketGrant) []byte {
	w := NewWriter()
	w.String(t.Service)
	w.Uint64(t.ID)
	w.Bytes(t.ServerPub)
	w.Uint64(t.RoundFirst)
	w.Uint64(t.RoundLast)
	w.Uint64(t.ExpiresUnix)
	return w.Finish()
}

// DecodeTicketGrant reverses EncodeTicketGrant.
func DecodeTicketGrant(data []byte) (TicketGrant, error) {
	r := NewReader(data)
	t := TicketGrant{
		Service:     r.String(),
		ID:          r.Uint64(),
		ServerPub:   r.Bytes(),
		RoundFirst:  r.Uint64(),
		RoundLast:   r.Uint64(),
		ExpiresUnix: r.Uint64(),
	}
	if err := r.Done(); err != nil {
		return t, fmt.Errorf("%w: grant: %v", ErrTicket, err)
	}
	if len(t.ServerPub) != DHPublicLen {
		return t, fmt.Errorf("%w: server public value is %d bytes", ErrTicket, len(t.ServerPub))
	}
	return t, nil
}
