package xcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding"
)

// Batch-amortized session-MAC verification: the ingest hot path receives
// contributions in frames, and every contribution in a frame that shares a
// ticket shares its session key. HMAC-SHA256's per-message setup — XORing
// the key into two pads and compressing one block for each — is identical
// for every message under one key, so a batch verifier computes the two
// keyed pad states once and snapshots them; each message then costs only a
// state restore (a ~100-byte copy) plus the hashing of its own bytes. The
// snapshot uses the hash state's own binary marshaling, so no SHA-256
// internals are duplicated here.

// keyedStates holds the snapshotted inner/outer pad states for one key.
// hash.Hash implementations in the standard library satisfy both interfaces;
// the assertions live here so MACState can fall back to the unamortized path
// on a hypothetical hash that does not.
type keyedStates struct {
	inner, outer []byte
}

// SetKey prepares m to verify a run of MACs under key, caching the keyed
// pad states so each subsequent SumKeyed/VerifyKeyed skips the per-message
// key schedule. Setting the key m already holds is a cheap no-op, so batch
// loops call SetKey unconditionally per group. The cache never holds the
// key itself beyond the comparison copy; like the pads in Sum, it is
// overwritten by the next SetKey.
func (m *MACState) SetKey(key *SessionKey) {
	if m.keyed && m.key == *key {
		return
	}
	if m.h == nil {
		m.h = sha256.New()
	}
	app, okA := m.h.(encoding.BinaryAppender)
	unm, okU := m.h.(encoding.BinaryUnmarshaler)
	if !okA || !okU {
		// No snapshot support: remember the key so SumKeyed can fall back
		// to the one-shot path.
		m.key = *key
		m.keyed = true
		m.snap = false
		return
	}
	// Inner pad state: K0 ^ 0x36, one compressed block.
	for i := range m.pad {
		m.pad[i] = 0x36
	}
	for i, b := range key {
		m.pad[i] ^= b
	}
	m.h.Reset()
	m.h.Write(m.pad[:])
	var err error
	if m.states.inner, err = app.AppendBinary(m.states.inner[:0]); err != nil {
		m.key, m.keyed, m.snap = *key, true, false
		return
	}
	// Outer pad state: K0 ^ 0x5c, one compressed block.
	for i := range m.pad {
		m.pad[i] ^= 0x36 ^ 0x5c
	}
	m.h.Reset()
	m.h.Write(m.pad[:])
	if m.states.outer, err = app.AppendBinary(m.states.outer[:0]); err != nil {
		m.key, m.keyed, m.snap = *key, true, false
		return
	}
	m.unmarshal = unm
	m.key = *key
	m.keyed = true
	m.snap = true
}

// SumKeyed computes HMAC-SHA256 under the key set by SetKey, over a
// preimage supplied in two segments (head || tail) — the shape the ingest
// path produces, where the preimage is a constant domain header followed by
// a view into the transport frame, and gluing them would cost a copy per
// message. SumKeyed panics if SetKey has not been called.
func (m *MACState) SumKeyed(head, tail []byte, out *[MACSize]byte) {
	if !m.keyed {
		panic("xcrypto: SumKeyed before SetKey")
	}
	if !m.snap {
		// Snapshot-less fallback: one-shot Sum over a joined preimage.
		m.joined = append(m.joined[:0], head...)
		m.joined = append(m.joined, tail...)
		key := m.key // Sum clobbers m.pad, not m.key
		m.Sum(&key, m.joined, out)
		return
	}
	_ = m.unmarshal.UnmarshalBinary(m.states.inner)
	m.h.Write(head)
	m.h.Write(tail)
	inner := m.h.Sum(m.sum[:0])
	_ = m.unmarshal.UnmarshalBinary(m.states.outer)
	m.h.Write(inner)
	m.h.Sum(out[:0])
}

// VerifyKeyed reports whether mac is the session MAC of head || tail under
// the key set by SetKey, in constant time with respect to the MAC bytes.
func (m *MACState) VerifyKeyed(head, tail, mac []byte) bool {
	if len(mac) != MACSize {
		return false
	}
	m.SumKeyed(head, tail, &m.out)
	return hmac.Equal(m.out[:], mac)
}
