package xcrypto

import (
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
)

// Session MACs: the amortized-authentication primitive behind attested
// session tickets. One public-key operation (a signature-verified ticket
// request, or an attested handshake) establishes a short-lived 32-byte
// session key; every message that follows carries a GMAC tag instead of an
// asymmetric signature. GMAC is AES-256-GCM sealing an empty plaintext with
// the message as additional data (NIST SP 800-38D), so the per-message cost
// is AES-NI and carry-less multiplication over the message, not SHA-256.
//
// A MAC is MACNonceSize bytes of nonce followed by the 16-byte tag. The
// sealer draws every nonce from crypto/rand and never from a counter:
// sealed enclave state can be rolled back, and a rolled-back counter would
// reuse a nonce. Random nonces also make two MACs of one message differ, so
// a MAC names one act of sealing rather than one message — two identical
// honest contributions under one ticket are two contributions, and only a
// byte-identical resubmission is a replay.

const (
	// MACNonceSize is the byte length of a session MAC's leading nonce.
	MACNonceSize = 12
	// MACSize is the byte length of a session MAC: nonce, then tag.
	MACSize = MACNonceSize + 16
)

// SessionKey is a 32-byte AES-256 session key. It is a value type so hot
// paths can copy it out of shared tables without allocating.
type SessionKey [32]byte

// DeriveTicketKey derives the session key both ends of a ticket grant
// compute from the X25519 shared secret: the granting service on one side,
// the enclave that supplied the device public value on the other. The key
// is bound to the service name and the granted ticket ID, so a grant
// replayed across services or tickets derives a useless key.
func DeriveTicketKey(shared []byte, service string, ticketID uint64) SessionKey {
	info := make([]byte, 0, len("glimmers/ticket/v1/")+len(service)+9)
	info = append(info, "glimmers/ticket/v1/"...)
	info = append(info, service...)
	info = append(info, 0)
	info = binary.BigEndian.AppendUint64(info, ticketID)
	var key SessionKey
	copy(key[:], HKDF(shared, nil, info, 32))
	return key
}

// NewSessionAEAD returns the AES-256-GCM instance that seals and opens
// key's MACs. Building one expands the AES key schedule and the GHASH
// tables, which costs more than a MAC over a few kilobytes, so whoever MACs
// a stream under one key builds it once and reuses it; it is safe for
// concurrent use.
func NewSessionAEAD(key *SessionKey) cipher.AEAD {
	aead, err := newGCM(*key)
	if err != nil {
		panic(err) // AES accepts every 32-byte key
	}
	return aead
}

// AppendSessionMAC appends a session MAC of msg under aead to dst: a fresh
// random nonce, then the tag. msg must not overlap dst's spare capacity.
func AppendSessionMAC(dst []byte, aead cipher.AEAD, msg []byte) []byte {
	dst = append(dst, make([]byte, MACNonceSize)...)
	nonce := dst[len(dst)-MACNonceSize:]
	rand.Read(nonce) // never fails: crypto/rand aborts the program instead
	return aead.Seal(dst, nonce, nil, msg)
}

// OpenSessionMAC reports whether mac is a session MAC of msg under aead.
// Anything that is not exactly MACSize bytes is refused before AES runs;
// the tag comparison is constant-time.
func OpenSessionMAC(aead cipher.AEAD, msg, mac []byte) bool {
	if len(mac) != MACSize {
		return false
	}
	_, err := aead.Open(nil, mac[:MACNonceSize], mac[MACNonceSize:], msg)
	return err == nil
}

// SessionMAC is the one-shot seal for cold paths and tests; it builds an
// AEAD per call.
func SessionMAC(key *SessionKey, msg []byte) [MACSize]byte {
	var out [MACSize]byte
	AppendSessionMAC(out[:0], NewSessionAEAD(key), msg)
	return out
}

// VerifySessionMAC is the one-shot check counterpart of SessionMAC.
func VerifySessionMAC(key *SessionKey, msg, mac []byte) bool {
	return OpenSessionMAC(NewSessionAEAD(key), msg, mac)
}

// MACState checks a stream of MACs over two-segment preimages (a constant
// domain header and a view of received bytes): it keeps the AEAD of the
// last key set, rebuilt only when the key changes, and a scratch buffer
// the two segments are joined in, since GCM takes its additional data in
// one piece. At steady state under one key it allocates nothing. A
// MACState must not be used from two goroutines concurrently.
type MACState struct {
	key      SessionKey
	aead     cipher.AEAD
	preimage []byte
}

// SetKey makes key the one VerifyKeyed checks under. Setting the key m
// already holds is a no-op, so loops call it unconditionally per item.
func (m *MACState) SetKey(key *SessionKey) {
	if m.aead != nil && m.key == *key {
		return
	}
	m.key, m.aead = *key, NewSessionAEAD(key)
}

// VerifyKeyed reports whether mac is a session MAC of head‖tail under the
// key set by SetKey. It panics if SetKey has not been called.
func (m *MACState) VerifyKeyed(head, tail, mac []byte) bool {
	if m.aead == nil {
		panic("xcrypto: VerifyKeyed before SetKey")
	}
	m.preimage = append(append(m.preimage[:0], head...), tail...)
	return OpenSessionMAC(m.aead, m.preimage, mac)
}
