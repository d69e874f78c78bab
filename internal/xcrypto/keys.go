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
// second accepted encoding of a message it has seen signed — under Public
// and under SelfVerifyKey alike.
const SignatureSize = saltSize + ed25519.SignatureSize

// SigningKey is an Ed25519 private key used for all signatures in the
// system: enclave quotes, service identities, and Glimmer contribution
// endorsements.
type SigningKey struct {
	priv ed25519.PrivateKey
}

// VerifyKey is the public half of a SigningKey. A key from
// SigningKey.SelfVerifyKey also holds its signer's expanded secret and
// checks RFC 8032's scalar equation; every other key verifies on the curve.
type VerifyKey struct {
	pub   ed25519.PublicKey
	bound *expandedKey
}

// expandedKey is the half of RFC 8032's key expansion that signing uses:
// the secret scalar s = clamp(SHA-512(seed)[:32]) mod L, and the prefix
// SHA-512(seed)[32:] from which every signature's nonce is derived.
type expandedKey struct {
	s      scalar
	prefix [32]byte
}

// dom2ph is RFC 8032's dom2(1, "") — the prefix of Ed25519ph's nonce and
// challenge hashes: phflag 1, an empty context.
const dom2ph = "SigEd25519 no Ed25519 collisions\x01\x00"

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
// VerifyKey rests on, since it recomputes that nonce
// (TestSignIsDeterministicGivenSalt).
func (k *SigningKey) signWithSalt(salt, head, tail []byte) ([]byte, error) {
	digest := saltedDigest(salt, head, tail)
	return k.priv.Sign(nil, digest[:], crypto.SHA512)
}

// Public returns the verification half of the key: it verifies on the
// curve and is what may be marshaled and handed to anyone.
func (k *SigningKey) Public() *VerifyKey {
	return &VerifyKey{pub: k.priv.Public().(ed25519.PublicKey)}
}

// SelfVerifyKey returns a verification key bound to k: it expands k's seed
// once, as RFC 8032 does, and checks a signature (R, S) with the scalar
// equation S = r + k·s mod L — r the nonce RFC 8032 derives from the prefix
// and the prehash, k the challenge over R, the public key and the prehash —
// compared in constant time: three SHA-512s and one multiply-add, no curve
// arithmetic. It accepts every RFC 8032 signature under k and refuses S ≥ L
// and every salt, message or key mismatch. It accepts exactly what the
// curve accepts, except byte strings only the key holder can compute: an R
// that is not the nonce's point, with the S that makes the equation hold.
// So nobody but the key holder can produce a second accepted encoding of a
// signed message. It marshals and fingerprints as Public does and never
// prints the secret it holds. It is for a verifier that owns k; anything
// crossing a trust boundary gets Public or its Marshal bytes.
func (k *SigningKey) SelfVerifyKey() *VerifyKey {
	vk := k.Public()
	h := sha512.Sum512(k.priv.Seed())
	e := &expandedKey{prefix: [32]byte(h[32:])}
	clear(h[32:])
	h[0] &= 248
	h[31] &= 127
	h[31] |= 64
	e.s = scalarFromWideBytes(&h)
	clear(h[:])
	vk.bound = e
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
// runs. A bound key (SelfVerifyKey) checks the scalar equation; every
// other key verifies on the curve.
func (k *VerifyKey) VerifyParts(head, tail, sig []byte) bool {
	if len(sig) != SignatureSize {
		return false
	}
	digest := saltedDigest(sig[:saltSize], head, tail)
	if k.bound != nil {
		s := k.bound.signatureS(k.pub, &digest, sig[saltSize:saltSize+32])
		return subtle.ConstantTimeCompare(s[:], sig[saltSize+32:]) == 1
	}
	return ed25519.VerifyWithOptions(k.pub, digest[:], sig[saltSize:], &ed25519.Options{Hash: crypto.SHA512}) == nil
}

// signatureS returns the encoding of S = r + k·s mod L, where
// r = SHA-512(dom2‖prefix‖digest) and k = SHA-512(dom2‖R‖A‖digest). The hash
// inputs share one stack buffer: dom2, then the prefix and the digest for r;
// then R, A and the digest for k, which overwrite the prefix.
func (e *expandedKey) signatureS(pub ed25519.PublicKey, digest *[sha512.Size]byte, R []byte) [32]byte {
	const d = len(dom2ph)
	var buf [d + 32 + 32 + sha512.Size]byte
	copy(buf[:], dom2ph)
	copy(buf[d:], e.prefix[:])
	copy(buf[d+32:], digest[:])
	wide := sha512.Sum512(buf[:d+32+sha512.Size])
	r := scalarFromWideBytes(&wide)
	copy(buf[d:], R)
	copy(buf[d+32:], pub)
	copy(buf[d+64:], digest[:])
	wide = sha512.Sum512(buf[:])
	k := scalarFromWideBytes(&wide)
	s := mulAdd(&k, &e.s, &r)
	var enc [32]byte
	s.bytes(&enc)
	return enc
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

// ParseDHKey builds a DHKey from 32 bytes of X25519 private key material.
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
