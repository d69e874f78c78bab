package attest

import (
	"encoding/binary"
	"errors"
	"fmt"

	"glimmers/internal/xcrypto"
)

// ErrReplay is returned when an incoming message fails sequence-bound
// authentication: a replayed, reordered, dropped, or forged record.
var ErrReplay = errors.New("attest: message failed sequence authentication")

// Session is an established attested channel. Each direction has its own
// key, and every record is bound to a strictly increasing sequence number,
// so the channel detects replay and reordering.
type Session struct {
	sendKey [32]byte
	recvKey [32]byte
	sendSeq uint64
	recvSeq uint64
}

// deriveSession turns the DH shared secret and transcript into directional
// keys. The enclave initiated the handshake, so its send direction is "i2r".
func deriveSession(shared []byte, transcript [32]byte, isEnclave bool) *Session {
	master := xcrypto.HKDF(shared, transcript[:], []byte("glimmers/attest/session/v1"), 32)
	i2r := xcrypto.DeriveKey32(master, "glimmers/attest/i2r")
	r2i := xcrypto.DeriveKey32(master, "glimmers/attest/r2i")
	s := &Session{}
	if isEnclave {
		s.sendKey, s.recvKey = i2r, r2i
	} else {
		s.sendKey, s.recvKey = r2i, i2r
	}
	return s
}

// NewSessionFromSecret derives a Session directly from an out-of-band
// shared secret — used for local-attestation links between the components
// of a decomposed Glimmer, where both endpoints are enclaves on the same
// platform and the remote-quote handshake would be overkill.
func NewSessionFromSecret(shared []byte, transcript [32]byte, initiator bool) *Session {
	return deriveSession(shared, transcript, initiator)
}

func seqAAD(seq uint64) []byte {
	var aad [16]byte
	copy(aad[:8], "glimrec\x00")
	binary.BigEndian.PutUint64(aad[8:], seq)
	return aad[:]
}

// Send encrypts the next outgoing record.
func (s *Session) Send(plaintext []byte) ([]byte, error) {
	record, err := xcrypto.Seal(s.sendKey, plaintext, seqAAD(s.sendSeq))
	if err != nil {
		return nil, fmt.Errorf("attest: send: %w", err)
	}
	s.sendSeq++
	return record, nil
}

// Recv authenticates and decrypts the next incoming record. Any record that
// is not the exact next message in sequence fails with ErrReplay.
func (s *Session) Recv(record []byte) ([]byte, error) {
	plaintext, err := xcrypto.Open(s.recvKey, record, seqAAD(s.recvSeq))
	if err != nil {
		return nil, ErrReplay
	}
	s.recvSeq++
	return plaintext, nil
}
