package service

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
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

// partialPipeline builds a pipeline for one shard of a split round and
// feeds it the given contributions.
func partialPipeline(t *testing.T, key *xcrypto.SigningKey, name string, round uint64, dim int, raws [][]byte) *Pipeline {
	t.Helper()
	p := testRound(t, TenantConfig{
		Name: name, Verify: key.Public(), Dim: dim, Workers: 1,
		Vetted: []tee.Measurement{{1, 2, 3}},
	}, round)
	for _, err := range add(p, raws...) {
		if err != nil {
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
	if seal.Count != 5 {
		t.Fatalf("seal counts %d contributions, want 5", seal.Count)
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

	_, m := testTenant(t, TenantConfig{Name: "svc", Verify: key.Public(), Dim: 4})
	if _, err := m.ExportPartialSeal(99, node); err == nil {
		t.Fatal("exported a seal for a round the manager never opened")
	}
}

// filledRound is round of m's tenant with contribs unsigned contributions
// accepted.
func filledRound(tb testing.TB, m *RoundManager, round uint64, contribs int) *Pipeline {
	tb.Helper()
	p := m.Round(round)
	raws := make([][]byte, contribs)
	for i := range raws {
		raws[i] = tenantContribution(tb, nil, m.cfg.Name, round, m.cfg.Dim, i)
	}
	for _, err := range add(p, raws...) {
		if err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// TestPartialSealRefusesForgottenRound: a round that has left its manager,
// sealed or not, exports no seal. retire empties its shards, and a seal of
// them is a valid, signed, empty answer that a hub would merge as the
// round's. A closed round has not left its manager and exports its cohort.
func TestPartialSealRefusesForgottenRound(t *testing.T) {
	node := newNodeSeal(t, 1, 1)
	for _, tc := range []struct {
		name    string
		before  func(*Pipeline)
		forget  bool
		dropped int
	}{
		{"open", func(*Pipeline) {}, true, 3},
		{"sealed", func(p *Pipeline) { _ = p.Seal() }, true, 0},
		{"closed", (*Pipeline).Close, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, m := testTenant(t, TenantConfig{Name: "f.example", Dim: 4, Workers: 1})
			p := filledRound(t, m, 3, 3)
			tc.before(p)
			if tc.forget {
				m.Forget(3)
			}
			raw, err := p.PartialSeal(node)
			if got := m.Dropped(); got != tc.dropped {
				t.Fatalf("dropped %d, want %d", got, tc.dropped)
			}
			if tc.forget {
				if !errors.Is(err, ErrRoundClosed) {
					t.Fatalf("forgotten round exported a %d B seal (err %v), want %v", len(raw), err, ErrRoundClosed)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if seal, err := wire.DecodePartialSeal(raw); err != nil || seal.Count != 3 {
				t.Fatalf("closed round's seal counts %d (%v), want 3", seal.Count, err)
			}
		})
	}
}

// TestPartialSealRacesForget exports each round while it is forgotten:
// every seal carries the round's whole cohort, or the export fails; none
// is an emptied round's. Run under -race in CI.
func TestPartialSealRacesForget(t *testing.T) {
	const rounds, contribs = 200, 3
	_, m := testTenant(t, TenantConfig{Name: "f.example", Dim: 4, Workers: 1})
	node := newNodeSeal(t, 1, 1)
	exported := 0
	for round := uint64(1); round <= rounds; round++ {
		want := glimmer.VectorToBits(filledRound(t, m, round, contribs).Sum())
		var (
			wg    sync.WaitGroup
			start = make(chan struct{})
			raw   []byte
			err   error
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			raw, err = m.ExportPartialSeal(round, node)
		}()
		go func() {
			defer wg.Done()
			<-start
			for range round % 16 { // stagger the forget across the export
				runtime.Gosched()
			}
			m.Forget(round)
		}()
		close(start)
		wg.Wait()
		if err != nil {
			continue
		}
		exported++
		seal, err := wire.DecodePartialSeal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if seal.Count != contribs || !equalLanes(seal.Sum, want) {
			t.Fatalf("round %d sealed count %d sum %v, want %d and %v", round, seal.Count, seal.Sum, contribs, want)
		}
	}
	t.Logf("%d of %d rounds exported before their forget", exported, rounds)
}

// TestPartialSealSizeIndependentOfCohort: nothing per contribution reaches
// the coordinator, so seals of 1 and of 4,096 contributions at one
// dimension are the same size.
func TestPartialSealSizeIndependentOfCohort(t *testing.T) {
	node := newNodeSeal(t, 1, 1)
	size := func(contribs int) int {
		_, m := testTenant(t, TenantConfig{Name: "svc", Dim: 64, Workers: 1})
		raw, err := filledRound(t, m, 1, contribs).PartialSeal(node)
		if err != nil {
			t.Fatal(err)
		}
		return len(raw)
	}
	if one, many := size(1), size(4096); one != many {
		t.Fatalf("a seal of 1 contribution is %d B, of 4096 %d B", one, many)
	}
}

// BenchmarkPartialSealExport re-exports a sealed round of 128
// contributions at dim 64, as a node does for a round whose seal its
// coordinator has not answered; seal-B is the encoded seal's size.
func BenchmarkPartialSealExport(b *testing.B) {
	_, m := testTenant(b, TenantConfig{Name: "svc", Dim: 64, Workers: 1})
	p := filledRound(b, m, 1, 128)
	node := newNodeSeal(b, 1, 1)
	var raw []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if raw, err = p.PartialSeal(node); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(raw)), "seal-B")
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
// cohorts of ring-wraparound values, ANY N-way split of the cohort into
// frames — ingested in any order by the round's one owner — seals and
// merges to the byte-identical sum and count of the cohort ingested whole. A seal declaring the round split N ways across
// nodes is refused.
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
					// top of the ring so the sum overflows uint64 lanes.
					if i%2 == 0 {
						for j := range v {
							v[j] = fixed.Ring(^uint64(0) - uint64(rng.Intn(3)))
						}
					}
					raws[i] = signedVector(t, key, "svc", round, v)
				}

				// Reference: the cohort in one frame.
				single := partialPipeline(t, key, "svc", round, dim, raws)
				if err := single.Seal(); err != nil {
					t.Fatal(err)
				}
				wantSum := glimmer.VectorToBits(single.Sum())
				wantCount := uint64(single.Count())

				// Random N-way partition into frames (empty frames are
				// legal), ingested in a random order.
				parts := make([][][]byte, ways)
				for _, raw := range raws {
					w := rng.Intn(ways)
					parts[w] = append(parts[w], raw)
				}
				p := partialPipeline(t, key, "svc", round, dim, nil)
				for _, w := range rng.Perm(ways) {
					for _, err := range add(p, parts[w]...) {
						if err != nil {
							t.Fatal(err)
						}
					}
				}
				node := newNodeSeal(t, 1, 1)
				seal, err := p.PartialSeal(node)
				if err != nil {
					t.Fatal(err)
				}

				hub := &MergeHub{AllowTOFU: true}
				if ways > 1 {
					split := node
					split.ShardCount = uint32(ways)
					splitSeal, err := p.PartialSeal(split)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := hub.MergePartialSeal(splitSeal); !errors.Is(err, wire.ErrSealMismatch) {
						t.Fatalf("seal declaring %d partials got %v, want %v", ways, err, wire.ErrSealMismatch)
					}
				}
				if _, err := hub.MergePartialSeal(seal); err != nil {
					t.Fatal(err)
				}
				merge, ok := hub.Lookup("svc", round)
				if !ok {
					t.Fatal("no merge after the round's seal")
				}
				res := merge.Result()
				if !equalLanes(res.Sum, wantSum) {
					t.Fatalf("merged sum %v != single-frame sum %v", res.Sum, wantSum)
				}
				if res.Count != wantCount || res.Expect != 1 || res.Merged != 1 {
					t.Fatalf("merge %d/%d partials of %d, want 1/1 of %d", res.Merged, res.Expect, res.Count, wantCount)
				}
				if got := wire.EncodeMergeResult(res); !bytes.Equal(got, wire.EncodeMergeResult(merge.Result())) {
					t.Fatal("merge result encoding unstable")
				}
			})
		}
	}
}

// TestMergeRefusals drives every refusal path through a hub and demands
// each one leave the round's merge — or its absence — and the hub's
// ledger, but for one refusal, untouched.
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
	nodeA := newNodeSeal(t, 1, 1)
	nodeB := newNodeSeal(t, 2, 1)
	rawsA, rawsB := mkRaws(3), mkRaws(3)
	sealA, err := partialPipeline(t, key, "svc", round, dim, rawsA).PartialSeal(nodeA)
	if err != nil {
		t.Fatal(err)
	}
	sealB, err := partialPipeline(t, key, "svc", round, dim, rawsB).PartialSeal(nodeB)
	if err != nil {
		t.Fatal(err)
	}

	absorb := func(t *testing.T, hub *MergeHub, raw []byte) {
		t.Helper()
		if _, err := hub.MergePartialSeal(raw); err != nil {
			t.Fatal(err)
		}
	}
	// newHub pins both nodes in earlier rounds, so every seal under
	// either ID answers to its pin.
	newHub := func(t *testing.T) *MergeHub {
		t.Helper()
		hub := &MergeHub{AllowTOFU: true}
		absorb(t, hub, hubSeal(t, nodeA, "svc", round-1, 1, 1))
		absorb(t, hub, hubSeal(t, nodeB, "svc", round-2, 1, 1))
		return hub
	}
	// merged is the round's merge result without its refusal counter, nil
	// while the hub holds no merge for the round.
	merged := func(hub *MergeHub) []byte {
		m, ok := hub.Lookup("svc", round)
		if !ok {
			return nil
		}
		r := m.Result()
		r.Refused = 0
		return wire.EncodeMergeResult(r)
	}

	check := func(t *testing.T, hub *MergeHub, raw []byte, want error) {
		t.Helper()
		before, ledger := merged(hub), hub.Stats()
		if _, err := hub.MergePartialSeal(raw); !errors.Is(err, want) {
			t.Fatalf("got %v, want %v", err, want)
		}
		if after := merged(hub); !bytes.Equal(before, after) {
			t.Fatalf("refusal disturbed the merge:\nbefore %x\nafter  %x", before, after)
		}
		ledger.SealsRefused++
		if got := hub.Stats(); got != ledger {
			t.Fatalf("hub ledger = %+v, want %+v", got, ledger)
		}
	}

	t.Run("garbage", func(t *testing.T) {
		check(t, newHub(t), []byte{0xFF, 0xFF}, wire.ErrPartialSeal)
	})

	t.Run("stale-shard-count", func(t *testing.T) {
		stale, err := partialPipeline(t, key, "svc", round, dim, rawsA).PartialSeal(
			NodeSeal{NodeID: 1, ShardCount: 3, Measurement: nodeA.Measurement, Key: nodeA.Key})
		if err != nil {
			t.Fatal(err)
		}
		hub := newHub(t)
		absorb(t, hub, sealB)
		check(t, hub, stale, wire.ErrSealMismatch)
	})

	t.Run("replay", func(t *testing.T) {
		hub := newHub(t)
		absorb(t, hub, sealA)
		check(t, hub, sealA, wire.ErrSealReplay)
	})

	t.Run("forged-key", func(t *testing.T) {
		// Node 2's ID under a key other than the one it pinned: the forger
		// can sign whatever partial it likes, the pin refuses it before the
		// sum is touched.
		forger := newNodeSeal(t, 2, 1)
		forged, err := partialPipeline(t, key, "svc", round, dim, mkRaws(2)).PartialSeal(forger)
		if err != nil {
			t.Fatal(err)
		}
		check(t, newHub(t), forged, wire.ErrSealIdentity)
	})

	t.Run("wrong-measurement", func(t *testing.T) {
		swapped := NodeSeal{NodeID: 1, ShardCount: 1, Measurement: tee.Measurement{0xEE}, Key: nodeA.Key}
		seal, err := partialPipeline(t, key, "svc", round, dim, nil).PartialSeal(swapped)
		if err != nil {
			t.Fatal(err)
		}
		check(t, newHub(t), seal, wire.ErrSealIdentity)
	})

	t.Run("flipped-signature", func(t *testing.T) {
		dec, err := wire.DecodePartialSeal(sealA)
		if err != nil {
			t.Fatal(err)
		}
		dec.Signature = append([]byte(nil), dec.Signature...)
		dec.Signature[0] ^= 0x80
		check(t, newHub(t), wire.EncodePartialSeal(dec), wire.ErrSealSignature)
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
		check(t, newHub(t), wire.EncodePartialSeal(dec), wire.ErrSealSignature)
	})

	t.Run("overlap", func(t *testing.T) {
		// Node 2 signs a perfectly valid seal that re-claims one of node
		// 1's contributions — double counting. The round merged from node
		// 1's seal, so node 2's is late, refused before its signature is
		// checked, and the contribution counts once.
		overlapping, err := partialPipeline(t, key, "svc", round, dim,
			append(append([][]byte(nil), rawsB...), rawsA[0])).PartialSeal(nodeB)
		if err != nil {
			t.Fatal(err)
		}
		hub := newHub(t)
		absorb(t, hub, sealA)
		check(t, hub, overlapping, wire.ErrMergeComplete)
	})

	t.Run("refused-counter", func(t *testing.T) {
		// The undecodable seal never reaches a merge; the replay does.
		hub := newHub(t)
		_, _ = hub.MergePartialSeal([]byte{0x01})
		_, _ = hub.MergePartialSeal(sealA)
		_, _ = hub.MergePartialSeal(sealA)
		m, ok := hub.Lookup("svc", round)
		if !ok {
			t.Fatal("the absorbed seal left no merge")
		}
		if got := m.Result().Refused; got != 1 {
			t.Fatalf("merge refused counter = %d, want 1", got)
		}
		if got := hub.Stats().SealsRefused; got != 2 {
			t.Fatalf("hub SealsRefused = %d, want 2", got)
		}
	})
}

// TestMergeHubTOFU drives the dynamic coordinator: a merge exists from
// its first absorbed seal, node identities pin on first use and the pins
// span rounds, so a node that comes back under a different key is refused
// and leaves no merge behind, and a late seal from another node finds the
// round merged.
func TestMergeHubTOFU(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const dim, round = 3, uint64(2)
	nodeA, nodeB := newNodeSeal(t, 1, 1), newNodeSeal(t, 2, 1)
	rawsA := [][]byte{signedVector(t, key, "svc", round, randomVector(rng, dim))}
	rawsB := [][]byte{signedVector(t, key, "svc", round, randomVector(rng, dim))}
	pA := partialPipeline(t, key, "svc", round, dim, rawsA)
	sealA, err := pA.PartialSeal(nodeA)
	if err != nil {
		t.Fatal(err)
	}
	sealB, err := partialPipeline(t, key, "svc", round, dim, rawsB).PartialSeal(nodeB)
	if err != nil {
		t.Fatal(err)
	}

	hub := &MergeHub{AllowTOFU: true}
	if _, ok := hub.Lookup("svc", round); ok {
		t.Fatal("a merge exists before any seal")
	}
	reply, err := hub.MergePartialSeal(sealA)
	if err != nil {
		t.Fatal(err)
	}
	res, err := wire.DecodeMergeResult(reply)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 1 || res.Expect != 1 || res.Count != 1 || !equalLanes(res.Sum, glimmer.VectorToBits(pA.Sum())) {
		t.Fatalf("after the first seal: %+v, want node 1's partial merged whole", res)
	}
	if _, ok := hub.Lookup("svc", round); !ok {
		t.Fatal("the absorbed seal left no merge")
	}

	// Pins span rounds: an impostor re-using node 1's ID under a different
	// key in the NEXT round contradicts the pin taken in this one.
	impostor, err := partialPipeline(t, key, "svc", round+1, dim, nil).PartialSeal(
		NodeSeal{NodeID: 1, ShardCount: 1, Measurement: nodeA.Measurement, Key: nodeB.Key})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.MergePartialSeal(impostor); !errors.Is(err, wire.ErrSealIdentity) {
		t.Fatalf("impostor got %v, want %v", err, wire.ErrSealIdentity)
	}
	if _, ok := hub.Lookup("svc", round+1); ok {
		t.Fatal("impostor's refused first contact left a merge behind")
	}

	// Another node's seal for the merged round is late.
	if _, err := hub.MergePartialSeal(sealB); !errors.Is(err, wire.ErrMergeComplete) {
		t.Fatalf("late seal got %v, want %v", err, wire.ErrMergeComplete)
	}
	if merges := hub.Merges(); len(merges["svc"]) != 1 {
		t.Fatalf("hub merges = %v", merges)
	}
	if st := hub.Stats(); st.Completed != 1 || st.SealsAbsorbed != 1 || st.SealsRefused != 2 {
		t.Fatalf("hub ledger = %+v, want 1 merge, 1 seal absorbed, 2 refused (impostor, late)", st)
	}
}
