package fleet

import (
	"fmt"
	"testing"

	"glimmers/internal/wire"
)

func mustRing(t *testing.T, nodes []uint32, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(nodes, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRingRejectsBadMembership(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("accepted empty ring")
	}
	if _, err := NewRing([]uint32{1, 2, 1}, 0); err == nil {
		t.Error("accepted duplicate node id")
	}
}

// Placement must be a pure function of membership: every node derives the
// same ring from its peer list regardless of the order peers were named.
func TestRingPermutationIndependent(t *testing.T) {
	a := mustRing(t, []uint32{0, 1, 2, 3}, 0)
	b := mustRing(t, []uint32{3, 1, 0, 2}, 0)
	for round := uint64(0); round < 500; round++ {
		svc := []byte(fmt.Sprintf("tenant-%d", round%7))
		if a.Owner(svc, round) != b.Owner(svc, round) {
			t.Fatalf("round %d: placement depends on membership order", round)
		}
	}
}

// Ownership should spread across nodes: with virtual nodes, no member of
// a 3-node ring should own a wildly disproportionate share.
func TestRingDistribution(t *testing.T) {
	r := mustRing(t, []uint32{10, 20, 30}, 0)
	counts := map[uint32]int{}
	const keys = 3000
	for round := uint64(0); round < keys; round++ {
		counts[r.Owner([]byte("iot.example"), round)]++
	}
	for node, c := range counts {
		if c < keys/6 || c > keys/2+keys/10 {
			t.Errorf("node %d owns %d/%d keys — skew too large", node, c, keys)
		}
	}
	if len(counts) != 3 {
		t.Fatalf("only %d nodes ever own keys", len(counts))
	}
}

// OwnerOf must agree with Owner applied to the peeked fields, and refuse
// frames too short to carry them.
func TestRingOwnerOf(t *testing.T) {
	r := mustRing(t, []uint32{1, 2, 3}, 0)
	for round := uint64(0); round < 64; round++ {
		raw := wire.NewWriter().
			Bytes([]byte("iot.example")).
			Uint64(round).
			Bytes([]byte("rest of the contribution")).
			Finish()
		got, err := r.OwnerOf(raw)
		if err != nil {
			t.Fatal(err)
		}
		if want := r.Owner([]byte("iot.example"), round); got != want {
			t.Fatalf("round %d: OwnerOf=%d Owner=%d", round, got, want)
		}
	}
	if _, err := r.OwnerOf([]byte{0x00, 0x00}); err == nil {
		t.Error("routed a truncated frame")
	}
}

// Each round is owned by exactly one node's predicate: the one Owner names.
func TestRingOwnsIsOwner(t *testing.T) {
	nodes := []uint32{1, 2, 3}
	r := mustRing(t, nodes, 0)
	for round := uint64(0); round < 64; round++ {
		owners := 0
		for _, n := range nodes {
			if r.Owns(n, "iot.example")(round) {
				owners++
				if want := r.Owner([]byte("iot.example"), round); n != want {
					t.Errorf("round %d: node %d owns it, Owner says %d", round, n, want)
				}
			}
		}
		if owners != 1 {
			t.Errorf("round %d has %d owners, want 1", round, owners)
		}
	}
}

// The per-contribution routing path must not allocate: it sits in front
// of the zero-alloc batch ingest and would otherwise dominate it.
func TestRingOwnerOfAllocFree(t *testing.T) {
	r := mustRing(t, []uint32{1, 2, 3, 4, 5}, 0)
	raw := wire.NewWriter().
		Bytes([]byte("iot.example")).
		Uint64(42).
		Bytes([]byte("payload")).
		Finish()
	var sink uint32
	allocs := testing.AllocsPerRun(1000, func() {
		n, err := r.OwnerOf(raw)
		if err != nil {
			t.Fatal(err)
		}
		sink += n
	})
	if allocs != 0 {
		t.Fatalf("OwnerOf allocates %.1f per call", allocs)
	}
	_ = sink
}

func BenchmarkRingOwnerOf(b *testing.B) {
	r, err := NewRing([]uint32{1, 2, 3}, 0)
	if err != nil {
		b.Fatal(err)
	}
	raw := wire.NewWriter().
		Bytes([]byte("iot.example")).
		Uint64(42).
		Bytes([]byte("payload")).
		Finish()
	b.ReportAllocs()
	var sink uint32
	for i := 0; i < b.N; i++ {
		n, _ := r.OwnerOf(raw)
		sink += n
	}
	_ = sink
}
