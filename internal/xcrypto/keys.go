package xcrypto

import (
	"crypto"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/sha512"
	"crypto/subtle"
	"crypto/x509"
	"fmt"
)

// saltSize is the length of the fresh random prefix of every signature.
const saltSize = 16

// SignatureSize is the fixed length of every signature: a fresh 16-byte
// salt followed by the 64-byte Ed25519ph signature over salt‖msg.
//
// The salt is load-bearing. All Glimmers of a tenant sign with one
// provisioned key and a signed contribution names no device, so two honest
// devices that submit the identical vector in one round would otherwise
// produce the identical bytes and the second would be refused as a replay.
// Because the signature covers the salt and Ed25519 verification is strict
// (S < L, R compared bytewise), nobody but the key holder can produce a
// second accepted encoding of a message it has seen signed.
const SignatureSize = saltSize + ed25519.SignatureSize

// SigningKey is an Ed25519 private key used for all signatures in the
// system: enclave quotes, service identities, and Glimmer contribution
// endorsements.
type SigningKey struct {
	priv ed25519.PrivateKey
}

// VerifyKey is the public half of a SigningKey. A key from
// SigningKey.SelfVerifyKey also holds its signer and verifies by
// recomputation; every other key verifies on the curve.
type VerifyKey struct {
	pub    ed25519.PublicKey
	signer *SigningKey
}

// NewSigningKey generates a fresh Ed25519 signing key.
func NewSigningKey() (*SigningKey, error) {
	_, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: key generation: %w", err)
	}
	return &SigningKey{priv: priv}, nil
}

// saltedDigest is SHA-512(salt‖head‖tail), streamed so that the message is
// never copied — nor glued, when it arrives in two segments.
func saltedDigest(salt, head, tail []byte) [sha512.Size]byte {
	h := sha512.New()
	h.Write(salt)
	h.Write(head)
	h.Write(tail)
	var digest [sha512.Size]byte
	h.Sum(digest[:0])
	return digest
}

// Sign returns a SignatureSize-byte signature over msg: a fresh salt, then
// the Ed25519ph signature over salt‖msg. Two signatures of one message
// differ.
func (k *SigningKey) Sign(msg []byte) ([]byte, error) {
	sig := make([]byte, saltSize, SignatureSize)
	if _, err := rand.Read(sig); err != nil {
		return nil, fmt.Errorf("xcrypto: sign: %w", err)
	}
	ph, err := k.signWithSalt(sig, nil, msg)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: sign: %w", err)
	}
	return append(sig, ph...), nil
}

// signWithSalt returns the Ed25519ph half of a signature: the 64 bytes over
// SHA-512(salt‖head‖tail). RFC 8032 derives the nonce from the key and the
// prehash, so the result depends on nothing else — the property a bound
// VerifyKey rests on (TestSignIsDeterministicGivenSalt).
func (k *SigningKey) signWithSalt(salt, head, tail []byte) ([]byte, error) {
	digest := saltedDigest(salt, head, tail)
	return k.priv.Sign(nil, digest[:], crypto.SHA512)
}

// Public returns the verification half of the key: it verifies on the
// curve and is what may be marshaled and handed to anyone.
func (k *SigningKey) Public() *VerifyKey {
	return &VerifyKey{pub: k.priv.Public().(ed25519.PublicKey)}
}

// SelfVerifyKey returns a verification key bound to k: it checks a
// signature by signing the same salted digest again and comparing in
// constant time — one fixed-base multiplication instead of a double-scalar
// verify. It accepts exactly what Public accepts from any RFC 8032 signer
// under k, refuses every other byte string, marshals and fingerprints as
// Public does, and never prints the secret it holds. It is for a verifier
// that owns k; anything crossing a trust boundary gets Public or its
// Marshal bytes.
func (k *SigningKey) SelfVerifyKey() *VerifyKey {
	vk := k.Public()
	vk.signer = k
	return vk
}

// Marshal serializes the private key (PKCS#8). Used to seal service signing
// keys to Glimmer enclaves.
func (k *SigningKey) Marshal() ([]byte, error) {
	der, err := x509.MarshalPKCS8PrivateKey(k.priv)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: marshal signing key: %w", err)
	}
	return der, nil
}

// ParseSigningKey reverses SigningKey.Marshal.
func ParseSigningKey(der []byte) (*SigningKey, error) {
	key, err := x509.ParsePKCS8PrivateKey(der)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: parse signing key: %w", err)
	}
	priv, ok := key.(ed25519.PrivateKey)
	if !ok {
		return nil, fmt.Errorf("xcrypto: parse signing key: %T is not an Ed25519 key", key)
	}
	return &SigningKey{priv: priv}, nil
}

// Verify reports whether sig is a valid signature over msg.
func (k *VerifyKey) Verify(msg, sig []byte) bool { return k.VerifyParts(nil, msg, sig) }

// VerifyParts reports whether sig is a valid signature over head‖tail, for
// callers that hold a message as a constant domain header and a view of
// received bytes (MACState.VerifyKeyed's shape). Anything that is not
// exactly SignatureSize bytes is refused before any hashing or curve code
// runs.
func (k *VerifyKey) VerifyParts(head, tail, sig []byte) bool {
	if len(sig) != SignatureSize {
		return false
	}
	if k.signer != nil {
		ph, err := k.signer.signWithSalt(sig[:saltSize], head, tail)
		return err == nil && subtle.ConstantTimeCompare(ph, sig[saltSize:]) == 1
	}
	digest := saltedDigest(sig[:saltSize], head, tail)
	return ed25519.VerifyWithOptions(k.pub, digest[:], sig[saltSize:], &ed25519.Options{Hash: crypto.SHA512}) == nil
}

// Marshal serializes the public key (PKIX DER). The encoding doubles as the
// key's canonical identity in wire messages and allowlists.
func (k *VerifyKey) Marshal() ([]byte, error) {
	der, err := x509.MarshalPKIXPublicKey(k.pub)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: marshal verify key: %w", err)
	}
	return der, nil
}

// Fingerprint returns the SHA-256 of the marshaled public key.
func (k *VerifyKey) Fingerprint() [32]byte {
	der, err := k.Marshal()
	if err != nil {
		// Ed25519 public keys always marshal; a failure means memory
		// corruption, not a recoverable condition.
		panic("xcrypto: impossible marshal failure: " + err.Error())
	}
	return sha256.Sum256(der)
}

// Format prints the key as its fingerprint, whatever the verb, so that no
// log line or error can show a bound key's signer.
func (k VerifyKey) Format(f fmt.State, _ rune) {
	fp := k.Fingerprint()
	fmt.Fprintf(f, "VerifyKey(%x)", fp[:])
}

// ParseVerifyKey reverses VerifyKey.Marshal.
func ParseVerifyKey(der []byte) (*VerifyKey, error) {
	key, err := x509.ParsePKIXPublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: parse verify key: %w", err)
	}
	pub, ok := key.(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("xcrypto: parse verify key: %T is not an Ed25519 key", key)
	}
	return &VerifyKey{pub: pub}, nil
}

// DHKey is an X25519 private key used for attested Diffie-Hellman
// handshakes between Glimmers, services, and clients.
type DHKey struct {
	priv *ecdh.PrivateKey
}

// NewDHKey generates a fresh X25519 key pair.
func NewDHKey() (*DHKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: DH key generation: %w", err)
	}
	return &DHKey{priv: priv}, nil
}

// PublicBytes returns the 32-byte public value to send to the peer.
func (k *DHKey) PublicBytes() []byte {
	return k.priv.PublicKey().Bytes()
}

// Bytes returns the private key material, for Shamir-style backup schemes.
func (k *DHKey) Bytes() []byte { return k.priv.Bytes() }

// ParseDHKey reconstructs a DHKey from Bytes output.
func ParseDHKey(b []byte) (*DHKey, error) {
	priv, err := ecdh.X25519().NewPrivateKey(b)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: parse DH key: %w", err)
	}
	return &DHKey{priv: priv}, nil
}

// Shared computes the raw shared secret with the peer's public value.
func (k *DHKey) Shared(peerPublic []byte) ([]byte, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: bad peer DH value: %w", err)
	}
	secret, err := k.priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: ECDH: %w", err)
	}
	return secret, nil
}
