package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

func newNodeSeal(t testing.TB, id, shards uint32) NodeSeal {
	t.Helper()
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	return NodeSeal{
		NodeID:      id,
		ShardCount:  shards,
		Measurement: tee.Measurement{0x50, byte(id)},
		Key:         key,
	}
}

func (n NodeSeal) mergeNode() MergeNode {
	return MergeNode{Verify: n.Key.Public(), Measurement: n.Measurement}
}

// partialPipeline builds a pipeline for one shard of a split round and
// feeds it the given contributions.
func partialPipeline(t *testing.T, key *xcrypto.SigningKey, name string, round uint64, dim int, raws [][]byte) *Pipeline {
	t.Helper()
	p := NewPipeline(PipelineConfig{
		ServiceName: name, Verify: key.Public(), Dim: dim, Round: round,
		Workers: 1, Shards: 2,
	})
	p.Vet(tee.Measurement{1, 2, 3})
	for _, raw := range raws {
		if err := p.Add(raw); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestPartialSealExport(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	raws := make([][]byte, 5)
	for i := range raws {
		raws[i] = signedVector(t, key, "svc", 3, randomVector(rng, 4))
	}
	p := partialPipeline(t, key, "svc", 3, 4, raws)
	node := newNodeSeal(t, 2, 3)

	raw, err := p.PartialSeal(node)
	if err != nil {
		t.Fatal(err)
	}
	seal, err := wire.DecodePartialSeal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if seal.Service != "svc" || seal.Round != 3 || seal.NodeID != 2 || seal.ShardCount != 3 {
		t.Fatalf("seal header = %q/%d node %d shards %d", seal.Service, seal.Round, seal.NodeID, seal.ShardCount)
	}
	if seal.Count != 5 || seal.DigestCount() != 5 {
		t.Fatalf("seal covers count=%d digests=%d", seal.Count, seal.DigestCount())
	}
	if want := glimmer.VectorToBits(p.Sum()); !equalLanes(seal.Sum, want) {
		t.Fatalf("seal sum %v != pipeline sum %v", seal.Sum, want)
	}
	if !node.Key.Public().Verify(seal.SignedBytes(), seal.Signature) {
		t.Fatal("seal signature does not verify")
	}
	// Export must be deterministic: a second export signs the same bytes.
	raw2, err := p.PartialSeal(node)
	if err != nil {
		t.Fatal(err)
	}
	seal2, err := wire.DecodePartialSeal(raw2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seal.SignedBytes(), seal2.SignedBytes()) {
		t.Fatal("re-export changed the signed bytes")
	}

	if _, err := p.PartialSeal(NodeSeal{NodeID: 1, ShardCount: 1}); err == nil {
		t.Fatal("exported a seal without a signing key")
	}

	m := NewRoundManager(PipelineConfig{ServiceName: "svc", Verify: key.Public(), Dim: 4})
	if _, err := m.ExportPartialSeal(99, node); err == nil {
		t.Fatal("exported a seal for a round the manager never opened")
	}
}

func equalLanes(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMergeSplitProperty is the merge algebra property test: for every
// dimension that exercises the 4-wide unroll remainders in fixed and for
// cohorts of ring-wraparound values, ANY N-way split of the cohort —
// merged in any order — produces the byte-identical sum, count, and
// digest coverage of a single node ingesting the whole cohort.
func TestMergeSplitProperty(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for _, dim := range []int{1, 3, 4, 5, 8, 9, 16} {
		for _, ways := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("dim%d_split%d", dim, ways), func(t *testing.T) {
				const cohort = 10
				round := uint64(40 + ways)
				raws := make([][]byte, cohort)
				for i := range raws {
					v := randomVector(rng, dim)
					// Force wraparound arithmetic: half the cohort sits at the
					// top of the ring so partial sums overflow uint64 lanes.
					if i%2 == 0 {
						for j := range v {
							v[j] = fixed.Ring(^uint64(0) - uint64(rng.Intn(3)))
						}
					}
					raws[i] = signedVector(t, key, "svc", round, v)
				}

				// Reference: one node ingests everything.
				single := partialPipeline(t, key, "svc", round, dim, raws)
				if err := single.Seal(); err != nil {
					t.Fatal(err)
				}
				wantSum := glimmer.VectorToBits(single.Sum())
				wantState := single.exportRound()

				// Random N-way partition (every shard non-empty not required —
				// empty partials are legal).
				parts := make([][][]byte, ways)
				for _, raw := range raws {
					w := rng.Intn(ways)
					parts[w] = append(parts[w], raw)
				}
				nodes := make([]NodeSeal, ways)
				seals := make([][]byte, ways)
				cfg := MergeConfig{ServiceName: "svc", Dim: dim, Round: round, Nodes: map[uint32]MergeNode{}}
				for w := range parts {
					nodes[w] = newNodeSeal(t, uint32(w), uint32(ways))
					cfg.Expect = append(cfg.Expect, uint32(w))
					cfg.Nodes[uint32(w)] = nodes[w].mergeNode()
					p := partialPipeline(t, key, "svc", round, dim, parts[w])
					seals[w], err = p.PartialSeal(nodes[w])
					if err != nil {
						t.Fatal(err)
					}
				}

				// Absorb in a random order: the merge must be commutative.
				merge := NewMerge(cfg)
				for _, w := range rng.Perm(ways) {
					if err := merge.Absorb(seals[w]); err != nil {
						t.Fatal(err)
					}
				}
				if !merge.Complete() {
					t.Fatal("merge not complete after every partial")
				}
				res := merge.Result()
				if !equalLanes(res.Sum, wantSum) {
					t.Fatalf("merged sum %v != single-node sum %v", res.Sum, wantSum)
				}
				if res.Count != wantState.Count {
					t.Fatalf("merged count %d != single-node count %d", res.Count, wantState.Count)
				}
				if got := wire.EncodeMergeResult(res); !bytes.Equal(got, wire.EncodeMergeResult(merge.Result())) {
					t.Fatal("merge result encoding unstable")
				}
				// Digest coverage must be the union: every digest the single
				// node saw is claimed by exactly one partial.
				covered := 0
				for _, raw := range seals {
					s, err := wire.DecodePartialSeal(raw)
					if err != nil {
						t.Fatal(err)
					}
					covered += s.DigestCount()
				}
				if covered != len(wantState.Digests) {
					t.Fatalf("partials cover %d digests, single node saw %d", covered, len(wantState.Digests))
				}
			})
		}
	}
}

// TestMergeRefusals drives every refusal path and demands each one leave
// the merge untouched.
func TestMergeRefusals(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const dim, round = 4, uint64(8)
	mkRaws := func(n int) [][]byte {
		raws := make([][]byte, n)
		for i := range raws {
			raws[i] = signedVector(t, key, "svc", round, randomVector(rng, dim))
		}
		return raws
	}
	nodeA := newNodeSeal(t, 1, 2)
	nodeB := newNodeSeal(t, 2, 2)
	rawsA, rawsB := mkRaws(3), mkRaws(3)
	sealA, err := partialPipeline(t, key, "svc", round, dim, rawsA).PartialSeal(nodeA)
	if err != nil {
		t.Fatal(err)
	}
	sealB, err := partialPipeline(t, key, "svc", round, dim, rawsB).PartialSeal(nodeB)
	if err != nil {
		t.Fatal(err)
	}

	newMerge := func() *Merge {
		return NewMerge(MergeConfig{
			ServiceName: "svc", Dim: dim, Round: round,
			Expect: []uint32{1, 2},
			Nodes:  map[uint32]MergeNode{1: nodeA.mergeNode(), 2: nodeB.mergeNode()},
		})
	}

	check := func(t *testing.T, m *Merge, raw []byte, want error) {
		t.Helper()
		before := m.Result()
		err := m.Absorb(raw)
		if !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
		after := m.Result()
		before.Refused, after.Refused = 0, 0
		if !bytes.Equal(wire.EncodeMergeResult(before), wire.EncodeMergeResult(after)) {
			t.Fatalf("refusal disturbed the merge:\nbefore %+v\nafter  %+v", before, after)
		}
	}

	t.Run("garbage", func(t *testing.T) {
		check(t, newMerge(), []byte{0xFF, 0xFF}, wire.ErrPartialSeal)
	})

	t.Run("wrong-round", func(t *testing.T) {
		other, err := partialPipeline(t, key, "svc", round+1, dim, nil).PartialSeal(nodeA)
		if err != nil {
			t.Fatal(err)
		}
		check(t, newMerge(), other, ErrSealMismatch)
	})

	t.Run("stale-shard-count", func(t *testing.T) {
		stale, err := partialPipeline(t, key, "svc", round, dim, rawsA).PartialSeal(
			NodeSeal{NodeID: 1, ShardCount: 3, Measurement: nodeA.Measurement, Key: nodeA.Key})
		if err != nil {
			t.Fatal(err)
		}
		m := newMerge()
		if err := m.Absorb(sealB); err != nil {
			t.Fatal(err)
		}
		check(t, m, stale, ErrSealMismatch)
	})

	t.Run("unknown-node", func(t *testing.T) {
		intruder, err := partialPipeline(t, key, "svc", round, dim, nil).PartialSeal(newNodeSeal(t, 9, 2))
		if err != nil {
			t.Fatal(err)
		}
		check(t, newMerge(), intruder, ErrSealUnknownNode)
	})

	t.Run("replay", func(t *testing.T) {
		m := newMerge()
		if err := m.Absorb(sealA); err != nil {
			t.Fatal(err)
		}
		check(t, m, sealA, ErrSealReplay)
	})

	t.Run("forged-key", func(t *testing.T) {
		// Node 2's ID under a key the coordinator never registered: the
		// forger can sign whatever partial it likes, the registration check
		// refuses it before the sum is touched.
		forger := newNodeSeal(t, 2, 2)
		forged, err := partialPipeline(t, key, "svc", round, dim, mkRaws(2)).PartialSeal(forger)
		if err != nil {
			t.Fatal(err)
		}
		check(t, newMerge(), forged, ErrSealIdentity)
	})

	t.Run("wrong-measurement", func(t *testing.T) {
		swapped := NodeSeal{NodeID: 1, ShardCount: 2, Measurement: tee.Measurement{0xEE}, Key: nodeA.Key}
		seal, err := partialPipeline(t, key, "svc", round, dim, nil).PartialSeal(swapped)
		if err != nil {
			t.Fatal(err)
		}
		check(t, newMerge(), seal, ErrSealIdentity)
	})

	t.Run("flipped-signature", func(t *testing.T) {
		dec, err := wire.DecodePartialSeal(sealA)
		if err != nil {
			t.Fatal(err)
		}
		dec.Signature = append([]byte(nil), dec.Signature...)
		dec.Signature[0] ^= 0x80
		check(t, newMerge(), wire.EncodePartialSeal(dec), ErrSealSignature)
	})

	t.Run("tampered-sum", func(t *testing.T) {
		// Inflating the partial sum breaks the signature: the sum is inside
		// the signed preimage.
		dec, err := wire.DecodePartialSeal(sealA)
		if err != nil {
			t.Fatal(err)
		}
		dec.Sum = append([]uint64(nil), dec.Sum...)
		dec.Sum[0]++
		check(t, newMerge(), wire.EncodePartialSeal(dec), ErrSealSignature)
	})

	t.Run("overlap", func(t *testing.T) {
		// Node 2 signs a perfectly valid seal that claims one of node 1's
		// contributions — double counting. The disjointness check refuses
		// it even though the signature verifies.
		overlapping, err := partialPipeline(t, key, "svc", round, dim,
			append(append([][]byte(nil), rawsB...), rawsA[0])).PartialSeal(nodeB)
		if err != nil {
			t.Fatal(err)
		}
		m := newMerge()
		if err := m.Absorb(sealA); err != nil {
			t.Fatal(err)
		}
		check(t, m, overlapping, ErrSealOverlap)
		// The honest disjoint seal still completes the merge afterwards.
		if err := m.Absorb(sealB); err != nil {
			t.Fatal(err)
		}
		if !m.Complete() {
			t.Fatal("merge did not complete after refusing the overlap")
		}
	})

	t.Run("refused-counter", func(t *testing.T) {
		m := newMerge()
		_ = m.Absorb([]byte{0x01})
		_ = m.Absorb(sealA)
		_ = m.Absorb(sealA)
		if got := m.Result().Refused; got != 2 {
			t.Fatalf("refused counter = %d, want 2", got)
		}
	})
}

// TestMergeHubTOFU drives the dynamic coordinator: merges materialize on
// the first seal absorbed, node identities pin on first use, and a node
// that comes back under a different key is refused.
func TestMergeHubTOFU(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const dim, round = 3, uint64(2)
	nodeA, nodeB := newNodeSeal(t, 1, 2), newNodeSeal(t, 2, 2)
	rawsA := [][]byte{signedVector(t, key, "svc", round, randomVector(rng, dim))}
	rawsB := [][]byte{signedVector(t, key, "svc", round, randomVector(rng, dim))}
	sealA, err := partialPipeline(t, key, "svc", round, dim, rawsA).PartialSeal(nodeA)
	if err != nil {
		t.Fatal(err)
	}
	sealB, err := partialPipeline(t, key, "svc", round, dim, rawsB).PartialSeal(nodeB)
	if err != nil {
		t.Fatal(err)
	}

	hub := &MergeHub{AllowTOFU: true}
	reply, err := hub.MergePartialSeal(sealA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wire.DecodeMergeResult(reply)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 || res.Expect != 2 {
		t.Fatalf("after first seal: merged=%d expect=%d", res.Merged, res.Expect)
	}

	// Pins span rounds: an impostor re-using node 1's ID under a different
	// key in the NEXT round contradicts the pin taken in this one.
	impostor, err := partialPipeline(t, key, "svc", round+1, dim, nil).PartialSeal(
		NodeSeal{NodeID: 1, ShardCount: 2, Measurement: nodeA.Measurement, Key: nodeB.Key})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.MergePartialSeal(impostor); !errors.Is(err, ErrSealIdentity) {
		t.Fatalf("impostor got %v, want %v", err, ErrSealIdentity)
	}

	reply, err = hub.MergePartialSeal(sealB)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = wire.DecodeMergeResult(reply); err != nil {
		t.Fatal(err)
	}
	if res.Merged != 2 || res.Expect != 2 {
		t.Fatalf("after second seal: merged=%d expect=%d", res.Merged, res.Expect)
	}
	m, ok := hub.Lookup("svc", round)
	if !ok || !m.Complete() {
		t.Fatal("hub merge not complete")
	}
	// A third node with the completed round's shard count cannot join.
	late, err := partialPipeline(t, key, "svc", round, dim, nil).PartialSeal(newNodeSeal(t, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.MergePartialSeal(late); !errors.Is(err, ErrMergeComplete) {
		t.Fatalf("late seal got %v, want %v", err, ErrMergeComplete)
	}
	// The completed merge let its coverage go; the late seal above was
	// refused without it.
	m.mu.Lock()
	released := m.seen == nil
	m.mu.Unlock()
	if !released {
		t.Fatal("completed merge still holds its digest coverage")
	}
	// One merge held: round 2, complete. The impostor's first contact for
	// round 3 was refused before any merge existed for it, so none does.
	if merges := hub.Merges(); len(merges["svc"]) != 1 {
		t.Fatalf("hub merges = %v", merges)
	}
	if _, ok := hub.Lookup("svc", round+1); ok {
		t.Fatal("impostor's refused first contact left a merge behind")
	}
	if st := hub.Stats(); st.Live != 0 || st.Completed != 1 || st.SealsAbsorbed != 2 || st.SealsRefused != 2 {
		t.Fatalf("hub ledger = %+v, want 1 completed merge, 2 seals absorbed, 2 refused (impostor, late)", st)
	}
}
