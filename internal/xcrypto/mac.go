package xcrypto

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
)

// Session MACs: the amortized-authentication primitive behind attested
// session tickets. One public-key operation (a signature-verified ticket
// request, or an attested handshake) establishes a short-lived 32-byte
// session key; every message that follows carries an HMAC-SHA256 tag
// instead of an asymmetric signature, turning the ~60 µs per-message
// verify into a ~1 µs constant-time check on the ingest hot path.

// MACSize is the byte length of a session MAC (HMAC-SHA256).
const MACSize = sha256.Size

// SessionKey is a 32-byte HMAC-SHA256 session key. It is a value type so
// hot paths can copy it out of shared tables without allocating.
type SessionKey [32]byte

// NewSessionKey draws a fresh random session key.
func NewSessionKey() (SessionKey, error) {
	var k SessionKey
	if _, err := rand.Read(k[:]); err != nil {
		return SessionKey{}, fmt.Errorf("xcrypto: session key generation: %w", err)
	}
	return k, nil
}

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

// MACState is reusable HMAC-SHA256 state for the per-message hot path: one
// state computes and verifies a stream of MACs under changing keys with
// zero heap allocations at steady state (the hasher is created once, the
// pads and digest buffers live on the struct). A MACState must not be used
// from two goroutines concurrently; pipelines pool them alongside their
// decode scratch.
type MACState struct {
	h   hash.Hash
	pad [sha256.BlockSize]byte
	sum [MACSize]byte
	out [MACSize]byte

	// Batch amortization (see macbatch.go): the keyed pad states for `key`,
	// snapshotted once per SetKey and restored per message. The snapshots
	// are immune to Sum/Verify calls in between — those rebuild their own
	// pads — so a state can interleave scalar and keyed use freely.
	key       SessionKey
	keyed     bool
	snap      bool
	states    keyedStates
	unmarshal encoding.BinaryUnmarshaler
	joined    []byte
}

// Sum computes HMAC-SHA256(key, msg) into out.
func (m *MACState) Sum(key *SessionKey, msg []byte, out *[MACSize]byte) {
	if m.h == nil {
		m.h = sha256.New()
	}
	// K0 = key || zeros to the block size; inner pad = K0 ^ 0x36.
	for i := range m.pad {
		m.pad[i] = 0x36
	}
	for i, b := range key {
		m.pad[i] ^= b
	}
	m.h.Reset()
	m.h.Write(m.pad[:])
	m.h.Write(msg)
	inner := m.h.Sum(m.sum[:0])
	// Outer pad = K0 ^ 0x5c.
	for i := range m.pad {
		m.pad[i] ^= 0x36 ^ 0x5c
	}
	m.h.Reset()
	m.h.Write(m.pad[:])
	m.h.Write(inner)
	m.h.Sum(out[:0])
}

// Verify reports whether mac is the session MAC of msg under key, in
// constant time with respect to the MAC bytes.
func (m *MACState) Verify(key *SessionKey, msg, mac []byte) bool {
	if len(mac) != MACSize {
		return false
	}
	// The comparison buffer lives on the state: a stack array passed into
	// the hasher's interface methods would escape and cost one allocation
	// per verification.
	m.Sum(key, msg, &m.out)
	return hmac.Equal(m.out[:], mac)
}

// SessionMAC is the one-shot convenience for cold paths (ticket issuance,
// the enclave's per-contribution seal, tests).
func SessionMAC(key *SessionKey, msg []byte) [MACSize]byte {
	var m MACState
	var out [MACSize]byte
	m.Sum(key, msg, &out)
	return out
}

// VerifySessionMAC is the one-shot verification counterpart.
func VerifySessionMAC(key *SessionKey, msg, mac []byte) bool {
	var m MACState
	return m.Verify(key, msg, mac)
}
