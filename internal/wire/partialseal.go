package wire

import (
	"bytes"
	"errors"
	"fmt"
)

// Partial-seal codecs: the fleet's cross-node merge plane. When a round's
// cohort is split across glimmerd nodes — consistent-hash sharding, or a
// mid-round re-home after a crash or partition — each node seals only a
// *partial* aggregate. The PartialSeal message carries that partial to the
// merge coordinator: the node's identity (ring ID, enclave measurement,
// verify key), the round it covers, how many partials the round splits
// into, the blinded partial sum, the accept/reject accounting, and every
// dedup digest the partial covers. The digests are what let the
// coordinator demand *disjoint cohort coverage*: two partials claiming the
// same contribution can never both merge, so nothing double-counts no
// matter how a shard was re-homed. MergeResult is the coordinator's
// answer. Both encodings are public and auditable like every other
// message in the system, and frozen by golden fixtures.

// SealDigestLen is the length of one dedup digest as it appears in a
// partial seal (SHA-256 of the raw contribution, or the session MAC on
// the ticketed path — both 32 bytes).
const SealDigestLen = 32

// ErrPartialSeal is the decode-failure sentinel both merge-plane codecs
// wrap.
var ErrPartialSeal = errors.New("wire: malformed partial-seal message")

// PartialSeal is one node's sealed share of a round's aggregate.
type PartialSeal struct {
	// Service names the tenant; the signature covers it, so a seal
	// replayed against another tenant can never verify.
	Service string
	// Round is the aggregation round this partial belongs to.
	Round uint64
	// NodeID is the sealing node's identity on the fleet ring.
	NodeID uint32
	// ShardCount is how many partials the node believes this round splits
	// into; the coordinator refuses a seal whose count disagrees with the
	// merge it is running (a stale pre-re-home seal fails here).
	ShardCount uint32
	// Measurement is the sealing node's enclave measurement; the
	// coordinator applies its allowlist (or TOFU pin) here.
	Measurement []byte
	// NodeKey is the node's verify key (PKIX DER). It is covered by
	// the signature, so coordinators that pin keys out of band can demand
	// a match, and TOFU coordinators pin it on first contact.
	NodeKey []byte
	// Count is the number of contributions this partial accepted; it must
	// equal the number of digests carried below.
	Count uint64
	// Rejected is the number of submissions this node refused for the
	// round — the accounting the coordinator reconciles globally.
	Rejected uint64
	// Sum is the blinded partial sum, one ring lane per dimension. It is
	// blinded exactly like the contributions it totals, so the seal leaks
	// nothing the transport didn't already carry.
	Sum []uint64
	// Digests is the partial's dedup coverage: Count digests of
	// SealDigestLen bytes each, concatenated in strictly ascending
	// lexicographic order (the canonical form — sorted, no duplicates).
	Digests []byte
	// Signature is the node's signature over SignedBytes.
	Signature []byte
}

// DigestCount returns the number of dedup digests the seal carries.
func (s PartialSeal) DigestCount() int { return len(s.Digests) / SealDigestLen }

// DigestAt returns the i-th digest as an array (copying 32 bytes).
func (s PartialSeal) DigestAt(i int) [SealDigestLen]byte {
	var d [SealDigestLen]byte
	copy(d[:], s.Digests[i*SealDigestLen:])
	return d
}

// SignedBytes returns the byte string the seal signature covers: a
// domain-separated encoding of every field except the signature itself.
func (s PartialSeal) SignedBytes() []byte {
	w := NewWriter()
	w.String("glimmers/partial-seal/v1")
	s.writeFields(w)
	return w.Finish()
}

func (s PartialSeal) writeFields(w *Writer) {
	w.String(s.Service)
	w.Uint64(s.Round)
	w.Uint32(s.NodeID)
	w.Uint32(s.ShardCount)
	w.Bytes(s.Measurement)
	w.Bytes(s.NodeKey)
	w.Uint64(s.Count)
	w.Uint64(s.Rejected)
	w.Uint64s(s.Sum)
	w.Bytes(s.Digests)
}

// EncodePartialSeal serializes the full seal.
func EncodePartialSeal(s PartialSeal) []byte {
	w := NewWriter()
	s.writeFields(w)
	w.Bytes(s.Signature)
	return w.Finish()
}

// DecodePartialSeal reverses EncodePartialSeal, enforcing the structural
// invariants — fixed measurement length, digest-count/Count agreement,
// and canonical (strictly ascending, duplicate-free) digest order — so a
// malformed seal is refused before any crypto runs.
func DecodePartialSeal(data []byte) (PartialSeal, error) {
	r := NewReader(data)
	s := PartialSeal{
		Service:     r.String(),
		Round:       r.Uint64(),
		NodeID:      r.Uint32(),
		ShardCount:  r.Uint32(),
		Measurement: r.Bytes(),
		NodeKey:     r.Bytes(),
		Count:       r.Uint64(),
		Rejected:    r.Uint64(),
		Sum:         r.Uint64s(),
		Digests:     r.Bytes(),
		Signature:   r.Bytes(),
	}
	if err := r.Done(); err != nil {
		return s, fmt.Errorf("%w: seal: %v", ErrPartialSeal, err)
	}
	if len(s.Measurement) != MeasurementLen {
		return s, fmt.Errorf("%w: measurement is %d bytes", ErrPartialSeal, len(s.Measurement))
	}
	if len(s.Digests)%SealDigestLen != 0 {
		return s, fmt.Errorf("%w: digest block is %d bytes", ErrPartialSeal, len(s.Digests))
	}
	if n := len(s.Digests) / SealDigestLen; uint64(n) != s.Count {
		return s, fmt.Errorf("%w: %d digests for count %d", ErrPartialSeal, n, s.Count)
	}
	for i := SealDigestLen; i < len(s.Digests); i += SealDigestLen {
		if bytes.Compare(s.Digests[i-SealDigestLen:i], s.Digests[i:i+SealDigestLen]) >= 0 {
			return s, fmt.Errorf("%w: digests not in strict ascending order", ErrPartialSeal)
		}
	}
	return s, nil
}

// MergeResult is the coordinator's running (and, once Merged == Expect,
// final) answer for one round's merge: how many partials it demands, how
// many it has folded, the global accept/reject accounting, and the merged
// blinded sum. It travels back as the fleet-merge reply so a sealing node
// learns the round's global state from its own ack.
type MergeResult struct {
	// Service and Round identify the merge.
	Service string
	Round   uint64
	// Expect is how many partials complete the merge; Merged is how many
	// have been folded in so far. Merged == Expect means the Sum below is
	// the round's exact (still blinded) total.
	Expect uint32
	Merged uint32
	// Count and Rejected are the global accounting: accepted contributions
	// and refused submissions summed across every merged partial.
	Count    uint64
	Rejected uint64
	// Refused counts partial seals the coordinator turned away (bad
	// signature, replay, overlap, stale shard count) without disturbing
	// the merge.
	Refused uint64
	// Sum is the merged blinded sum so far.
	Sum []uint64
}

// EncodeMergeResult serializes the merge state.
func EncodeMergeResult(m MergeResult) []byte {
	w := NewWriter()
	w.String(m.Service)
	w.Uint64(m.Round)
	w.Uint32(m.Expect)
	w.Uint32(m.Merged)
	w.Uint64(m.Count)
	w.Uint64(m.Rejected)
	w.Uint64(m.Refused)
	w.Uint64s(m.Sum)
	return w.Finish()
}

// DecodeMergeResult reverses EncodeMergeResult.
func DecodeMergeResult(data []byte) (MergeResult, error) {
	r := NewReader(data)
	m := MergeResult{
		Service:  r.String(),
		Round:    r.Uint64(),
		Expect:   r.Uint32(),
		Merged:   r.Uint32(),
		Count:    r.Uint64(),
		Rejected: r.Uint64(),
		Refused:  r.Uint64(),
		Sum:      r.Uint64s(),
	}
	if err := r.Done(); err != nil {
		return m, fmt.Errorf("%w: merge result: %v", ErrPartialSeal, err)
	}
	return m, nil
}
