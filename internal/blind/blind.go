// Package blind implements the blinding substrate for secure aggregation
// (Figure 1c of the paper): clients add secret masks to their fixed-point
// contributions so the service sees only noise per client, yet the masks
// cancel in the aggregate and the service recovers the exact sum.
//
// Two constructions are provided, matching the two the paper invokes:
//
//   - Dealer masks (§3): a trusted blinding service — itself hostable in an
//     enclave — draws N random vectors that sum to zero and distributes one
//     to each client's Glimmer, encrypted to a key provisioned via
//     attestation.
//   - Pairwise masks (Bonawitz et al. [3]): every pair of clients expands a
//     shared DH secret into a mask stream; client i adds the stream for
//     peers above it and subtracts for peers below, so all streams cancel
//     pairwise with no trusted dealer. Dropouts are survivable: a dropped
//     client's mask can be reconstructed from the pairwise seeds the
//     survivors reveal.
package blind

import (
	"encoding/binary"
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/xcrypto"
)

// ZeroSumMasks draws n mask vectors of the given dimension that sum to zero
// in the fixed-point ring. The seed makes the dealer deterministic for a
// given provisioning round; a dealer enclave feeds it hardware randomness.
func ZeroSumMasks(seed []byte, n, dim int) ([]fixed.Vector, error) {
	if n < 1 {
		return nil, fmt.Errorf("blind: need at least one mask, got %d", n)
	}
	if dim < 1 {
		return nil, fmt.Errorf("blind: dimension must be positive, got %d", dim)
	}
	prg := xcrypto.NewPRG(append([]byte("glimmers/blind/dealer/v1\x00"), seed...))
	masks := make([]fixed.Vector, n)
	for i := range masks {
		masks[i] = fixed.NewVector(dim)
	}
	// Draw the first n-1 masks at random; the last is the negated sum, so
	// the total is identically zero.
	for d := 0; d < dim; d++ {
		var sum fixed.Ring
		for i := 0; i < n-1; i++ {
			m := fixed.Ring(prg.Uint64())
			masks[i][d] = m
			sum += m
		}
		masks[n-1][d] = -sum
	}
	return masks, nil
}

// Apply returns contribution + mask: the blinded vector that is safe to
// reveal, because without the mask it is indistinguishable from random.
func Apply(contribution, mask fixed.Vector) (fixed.Vector, error) {
	if len(contribution) != len(mask) {
		return nil, fmt.Errorf("blind: contribution dim %d != mask dim %d", len(contribution), len(mask))
	}
	out := contribution.Clone()
	out.AddInPlace(mask)
	return out, nil
}

// maskFromSeed expands a pairwise seed into a mask vector for a round.
func maskFromSeed(seed []byte, round uint64, dim int) fixed.Vector {
	var roundBytes [8]byte
	binary.BigEndian.PutUint64(roundBytes[:], round)
	material := make([]byte, 0, len(seed)+8+32)
	material = append(material, []byte("glimmers/blind/pairwise/v1\x00")...)
	material = append(material, seed...)
	material = append(material, roundBytes[:]...)
	prg := xcrypto.NewPRG(material)
	v := fixed.NewVector(dim)
	for d := range v {
		v[d] = fixed.Ring(prg.Uint64())
	}
	return v
}
