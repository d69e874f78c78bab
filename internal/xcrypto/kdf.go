// Package xcrypto provides the small set of cryptographic building blocks
// the Glimmer stack needs: HKDF key derivation, a deterministic pseudo-random
// generator for blinding masks, AEAD encryption helpers, and thin wrappers
// around Ed25519 signing and X25519 key agreement.
//
// Everything here is built on the Go standard library. The package exists so
// that higher layers (sealing, attestation, blinding) share one audited set
// of primitives instead of each reimplementing key derivation.
package xcrypto

import (
	"crypto/hmac"
	"crypto/sha256"
)

// HKDFExtract implements the extract step of RFC 5869 HKDF with SHA-256.
// If salt is nil, a string of HashLen zeros is used, per the RFC.
func HKDFExtract(salt, ikm []byte) []byte {
	if salt == nil {
		salt = make([]byte, sha256.Size)
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// HKDFExpand implements the expand step of RFC 5869 HKDF with SHA-256,
// producing length bytes of output keyed by prk and bound to info.
// It panics if length exceeds 255*32 bytes, per the RFC limit.
func HKDFExpand(prk, info []byte, length int) []byte {
	const hashLen = sha256.Size
	if length > 255*hashLen {
		panic("xcrypto: HKDF expand length exceeds RFC 5869 limit")
	}
	var (
		out  = make([]byte, 0, length)
		prev []byte
	)
	for counter := byte(1); len(out) < length; counter++ {
		mac := hmac.New(sha256.New, prk)
		mac.Write(prev)
		mac.Write(info)
		mac.Write([]byte{counter})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

// HKDF runs extract-then-expand in one call.
func HKDF(secret, salt, info []byte, length int) []byte {
	return HKDFExpand(HKDFExtract(salt, secret), info, length)
}

// DeriveKey32 derives a 32-byte key from secret bound to the given context
// label. It is the conventional entry point for sealing and session keys.
func DeriveKey32(secret []byte, context string) [32]byte {
	var key [32]byte
	copy(key[:], HKDF(secret, nil, []byte(context), 32))
	return key
}
