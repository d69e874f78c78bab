package blind

import (
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/xcrypto"
)

// Party is one client in the pairwise-masking protocol. Each party holds a
// DH key; the roster of all parties' public keys is public. Inside a
// Glimmer deployment the Party state lives in the enclave, because pairwise
// seeds reveal masks.
type Party struct {
	index  int
	dh     *xcrypto.DHKey
	roster [][]byte
}

// NewParty creates the party at the given roster position. The roster entry
// at index must equal the party's own public key.
func NewParty(index int, dh *xcrypto.DHKey, roster [][]byte) (*Party, error) {
	if index < 0 || index >= len(roster) {
		return nil, fmt.Errorf("blind: index %d outside roster of %d", index, len(roster))
	}
	if string(roster[index]) != string(dh.PublicBytes()) {
		return nil, fmt.Errorf("blind: roster entry %d does not match party key", index)
	}
	return &Party{index: index, dh: dh, roster: roster}, nil
}

// SeedWith derives the symmetric pairwise seed shared with another party.
// Both parties derive the same seed, ordered by roster position so the
// derivation is symmetric.
func (p *Party) SeedWith(other int) ([]byte, error) {
	if other < 0 || other >= len(p.roster) || other == p.index {
		return nil, fmt.Errorf("blind: invalid peer %d", other)
	}
	shared, err := p.dh.Shared(p.roster[other])
	if err != nil {
		return nil, fmt.Errorf("blind: pairwise agreement with %d: %w", other, err)
	}
	lo, hi := p.index, other
	if lo > hi {
		lo, hi = hi, lo
	}
	info := fmt.Sprintf("glimmers/blind/seed/v1/%d/%d", lo, hi)
	return xcrypto.HKDF(shared, nil, []byte(info), 32), nil
}

// Mask computes the party's net mask for a round: the sum of pairwise
// streams with higher-indexed peers minus those with lower-indexed peers.
// Summed over all parties every stream appears once with each sign, so the
// total is zero.
func (p *Party) Mask(dim int, round uint64) (fixed.Vector, error) {
	if dim < 1 {
		return nil, fmt.Errorf("blind: dimension must be positive, got %d", dim)
	}
	mask := fixed.NewVector(dim)
	for other := range p.roster {
		if other == p.index {
			continue
		}
		seed, err := p.SeedWith(other)
		if err != nil {
			return nil, err
		}
		stream := maskFromSeed(seed, round, dim)
		if other > p.index {
			mask.AddInPlace(stream)
		} else {
			mask.SubInPlace(stream)
		}
	}
	return mask, nil
}

// RecoverMask reconstructs the mask of a dropped party from the pairwise
// seeds that the survivors reveal (seeds[k] is survivor k's seed with the
// dropped party). The aggregator subtracts the result from its running sum
// so the surviving contributions still unmask correctly.
func RecoverMask(dropped, n, dim int, round uint64, seeds map[int][]byte) (fixed.Vector, error) {
	if dropped < 0 || dropped >= n {
		return nil, fmt.Errorf("blind: dropped index %d outside group of %d", dropped, n)
	}
	mask := fixed.NewVector(dim)
	for other := 0; other < n; other++ {
		if other == dropped {
			continue
		}
		seed, ok := seeds[other]
		if !ok {
			return nil, fmt.Errorf("blind: missing revealed seed from survivor %d", other)
		}
		stream := maskFromSeed(seed, round, dim)
		if other > dropped {
			mask.AddInPlace(stream)
		} else {
			mask.SubInPlace(stream)
		}
	}
	return mask, nil
}
