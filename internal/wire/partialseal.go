package wire

import (
	"errors"
	"fmt"
)

// Partial-seal codecs: the fleet's cross-node merge plane. A glimmerd
// node that owns a round on the fleet's consistent-hash ring seals it and
// ships a PartialSeal to the merge coordinator: the node's identity (ring
// ID, enclave measurement, verify key), the round it covers, how many
// partials it declares the round splits into (1: a coordinator refuses any
// other count), the blinded sum and the accept/reject accounting. Nothing
// in it grows with the cohort: a coordinator merges a round from its one
// seal, so it is sent no dedup digest and no per-contribution value.
// MergeResult is the coordinator's answer. Both encodings are public and
// auditable like every other message in the system, and frozen by golden
// fixtures.

// ErrPartialSeal is the decode-failure sentinel both merge-plane codecs
// wrap.
var ErrPartialSeal = errors.New("wire: malformed partial-seal message")

// Merge refusal sentinels, each naming the check that turned a seal away;
// a refused seal never perturbs the merge (all-or-nothing absorption). They
// cross the wire in an error frame, which the client maps back onto them.
var (
	// ErrSealMismatch: the seal declares a shard count other than 1; a
	// round merges from its owner's one seal.
	ErrSealMismatch = errors.New("service: partial seal does not match this merge")
	// ErrSealReplay: this node's seal already merged the round.
	ErrSealReplay = errors.New("service: partial seal replayed")
	// ErrSealIdentity: the seal's key does not parse, its key or
	// measurement contradicts the node's first-use pin, or the node has no
	// pin and the hub does not pin on first use.
	ErrSealIdentity = errors.New("service: partial seal identity mismatch")
	// ErrSealSignature: the signature does not verify.
	ErrSealSignature = errors.New("service: partial seal signature invalid")
	// ErrMergeComplete: another node's seal already merged the round.
	ErrMergeComplete = errors.New("service: merge already complete")
	// ErrMergeRetired: the hub held a merge for this round and has let it
	// age out; the round is not reopened while its tombstone lasts.
	ErrMergeRetired = errors.New("service: merge retired")
)

// MergeRefusals are the coordinator's answers to a seal it turns away.
var MergeRefusals = []error{ErrSealMismatch, ErrSealReplay, ErrSealIdentity, ErrSealSignature, ErrMergeComplete, ErrMergeRetired}

// PartialSeal is one node's sealed share of a round's aggregate.
type PartialSeal struct {
	// Service names the tenant; the signature covers it, so a seal
	// replayed against another tenant can never verify.
	Service string
	// Round is the aggregation round this partial belongs to.
	Round uint64
	// NodeID is the sealing node's identity on the fleet ring.
	NodeID uint32
	// ShardCount is how many partials the node declares this round splits
	// into; a coordinator refuses any count but 1.
	ShardCount uint32
	// Measurement is the measurement the sealing node asserts for itself.
	// Nothing attests it: a coordinator pins it beside NodeKey on first
	// contact and refuses a later seal that changes it, and that is all.
	// glimmerd nodes send the zero measurement.
	Measurement []byte
	// NodeKey is the node's verify key (PKIX DER). It is covered by
	// the signature, so coordinators that pin keys out of band can demand
	// a match, and TOFU coordinators pin it on first contact.
	NodeKey []byte
	// Count is the number of contributions this partial accepted.
	Count uint64
	// Rejected is the number of submissions this node refused for the
	// round — the accounting the coordinator reconciles globally.
	Rejected uint64
	// Sum is the blinded partial sum, one ring lane per dimension. It is
	// blinded exactly like the contributions it totals, so the seal leaks
	// nothing the transport didn't already carry.
	Sum []uint64
	// Signature is the node's signature over SignedBytes.
	Signature []byte
}

// SignedBytes returns the byte string the seal signature covers: a
// domain-separated encoding of every field except the signature itself.
// The v1 domain signed a seal that also carried the round's dedup digests;
// a v1 seal fails to decode here, and a seal of this version fails to
// decode at a v1 coordinator, so a mixed fleet withholds a round.
func (s PartialSeal) SignedBytes() []byte {
	w := NewWriter()
	w.String("glimmers/partial-seal/v2")
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
}

// EncodePartialSeal serializes the full seal.
func EncodePartialSeal(s PartialSeal) []byte {
	w := NewWriter()
	s.writeFields(w)
	w.Bytes(s.Signature)
	return w.Finish()
}

// DecodePartialSeal reverses EncodePartialSeal, enforcing the fixed
// measurement length, so a malformed seal is refused before any crypto
// runs.
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
		Signature:   r.Bytes(),
	}
	if err := r.Done(); err != nil {
		return s, fmt.Errorf("%w: seal: %v", ErrPartialSeal, err)
	}
	if len(s.Measurement) != MeasurementLen {
		return s, fmt.Errorf("%w: measurement is %d bytes", ErrPartialSeal, len(s.Measurement))
	}
	return s, nil
}

// MergeResult is the coordinator's answer for one round's merge: how many
// partials it demands and has folded (1 and 1), the accept/reject
// accounting, and the merged blinded sum. It travels back as the fleet-merge reply so a sealing node
// learns the round's global state from its own ack.
type MergeResult struct {
	// Service and Round identify the merge.
	Service string
	Round   uint64
	// Expect is how many partials complete the merge; Merged is how many
	// have been folded in. A coordinator merges a round from one seal, so
	// both read 1 and the Sum below is the round's exact (still blinded)
	// total.
	Expect uint32
	Merged uint32
	// Count and Rejected are the round's accounting: accepted contributions
	// and refused submissions, as the merged seal carried them.
	Count    uint64
	Rejected uint64
	// Refused counts the seals for this round the coordinator turned away
	// (replayed, or late from another node) without disturbing the merge.
	Refused uint64
	// Sum is the merged blinded sum.
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
