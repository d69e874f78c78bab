// Package consortium implements the paper's alternative Glimmer
// realization (§2): instead of trusted hardware, an ensemble of independent
// third parties — the EFF, privacy advocacy organizations — jointly
// validates and blinds contributions, with k-of-n threshold endorsement so
// no single member is trusted alone.
//
// It exists so experiments can compare the two realizations (E10): the
// consortium needs no special hardware but costs n network round trips,
// n-way data disclosure (each member sees the private data — the trust is
// distributed, not eliminated), and k-of-n signature verification per
// contribution.
package consortium

import (
	"errors"
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/predicate"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Member is one consortium validator: an independent organization with its
// own signing identity running the agreed validation predicate.
type Member struct {
	index int
	key   *xcrypto.SigningKey
	pred  *predicate.Program
	// analysis caps execution.
	analysis *predicate.Analysis
}

// Validate runs the member's predicate and, on success, returns its
// signature share over the endorsement bytes.
func (m *Member) Validate(contribution, private []int64, endorsed []byte) ([]byte, error) {
	res, err := predicate.Run(m.pred, contribution, private, &predicate.Options{MaxSteps: m.analysis.CostBound})
	if err != nil || res.Verdict == 0 {
		return nil, ErrMemberRejected
	}
	return m.key.Sign(endorsed)
}

// Consortium is the client's view of the ensemble.
type Consortium struct {
	members   []*Member
	threshold int
}

// Consortium errors.
var (
	ErrMemberRejected = errors.New("consortium: member rejected contribution")
	ErrThreshold      = errors.New("consortium: insufficient valid endorsements")
)

// New creates a consortium of n members with threshold k, all running the
// same predicate.
func New(n, k int, pred *predicate.Program) (*Consortium, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("consortium: invalid threshold %d of %d", k, n)
	}
	analysis, err := predicate.Verify(pred)
	if err != nil {
		return nil, fmt.Errorf("consortium: predicate: %w", err)
	}
	c := &Consortium{threshold: k}
	for i := 0; i < n; i++ {
		key, err := xcrypto.NewSigningKey()
		if err != nil {
			return nil, fmt.Errorf("consortium: member %d: %w", i, err)
		}
		c.members = append(c.members, &Member{index: i, key: key, pred: pred, analysis: analysis})
	}
	return c, nil
}

// Endorsement is a threshold-validated, blinded contribution.
type Endorsement struct {
	Round   uint64
	Blinded fixed.Vector
	// Sigs maps member index to signature share.
	Sigs map[int][]byte
}

// SignedBytes is the byte string every member signs.
func (e Endorsement) SignedBytes() []byte {
	w := wire.NewWriter()
	w.String("glimmers/consortium/v1")
	w.Uint64(e.Round)
	vals := make([]uint64, len(e.Blinded))
	for i, r := range e.Blinded {
		vals[i] = uint64(r)
	}
	w.Uint64s(vals)
	return w.Finish()
}

// CostStats records the communication cost of one endorsement, the numbers
// E10 compares against the SGX Glimmer.
type CostStats struct {
	// Messages is the number of network messages exchanged.
	Messages int
	// Bytes is the total payload volume.
	Bytes int
	// Disclosures counts parties that saw the raw private data.
	Disclosures int
}

// Endorse submits a contribution (with its private validation data!) to
// every member, blinds it with the supplied mask, and collects signature
// shares. It fails unless at least k members endorse.
func (c *Consortium) Endorse(round uint64, contribution fixed.Vector, private []int64, mask fixed.Vector) (Endorsement, CostStats, error) {
	var stats CostStats
	blinded := contribution.Clone()
	if mask != nil {
		if len(mask) != len(contribution) {
			return Endorsement{}, stats, fmt.Errorf("consortium: mask dim %d != %d", len(mask), len(contribution))
		}
		blinded.AddInPlace(mask)
	}
	e := Endorsement{Round: round, Blinded: blinded, Sigs: make(map[int][]byte)}
	endorsed := e.SignedBytes()

	rawContribution := make([]int64, len(contribution))
	for i, r := range contribution {
		rawContribution[i] = int64(r)
	}
	requestSize := 8*len(rawContribution) + 8*len(private) + len(endorsed)
	for _, m := range c.members {
		stats.Messages++ // request
		stats.Bytes += requestSize
		stats.Disclosures++ // this member saw the private data
		sig, err := m.Validate(rawContribution, private, endorsed)
		if err != nil {
			continue // a rejecting or faulty member just yields no share
		}
		stats.Messages++ // response
		stats.Bytes += len(sig)
		e.Sigs[m.index] = sig
	}
	if len(e.Sigs) < c.threshold {
		return Endorsement{}, stats, fmt.Errorf("%w: %d of %d", ErrThreshold, len(e.Sigs), c.threshold)
	}
	return e, stats, nil
}

// VerifyEndorsement checks an endorsement against the member public keys:
// at least k distinct, valid signature shares.
func VerifyEndorsement(e Endorsement, keys []*xcrypto.VerifyKey, k int) error {
	endorsed := e.SignedBytes()
	valid := 0
	for idx, sig := range e.Sigs {
		if idx < 0 || idx >= len(keys) {
			continue
		}
		if keys[idx].Verify(endorsed, sig) {
			valid++
		}
	}
	if valid < k {
		return fmt.Errorf("%w: %d of %d", ErrThreshold, valid, k)
	}
	return nil
}
