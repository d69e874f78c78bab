package fixed

import (
	"math/rand"
	"testing"

	"glimmers/internal/race"
)

// randVector draws ring elements across the full 64-bit range, biased to
// include the wraparound-heavy corners the Q44.20 encoding never produces
// on its own: exact blinding masks are uniform in Z_2^64, so the wide-lane
// paths must be bit-exact there too.
func randVector(rng *rand.Rand, n int) Vector {
	v := NewVector(n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = Ring(^uint64(0)) // -1: wraps on nearly every add
		case 1:
			v[i] = Ring(1 << 63) // sign corner
		case 2:
			v[i] = 0
		default:
			v[i] = Ring(rng.Uint64())
		}
	}
	return v
}

// TestAddBatchInPlaceMatchesRepeatedAdd is the core property: a batch of
// wide-lane AddInPlace calls equals the scalar loop it replaces, on every
// length (unroll remainders 0..3 all covered) and across wraparound values.
func TestAddBatchInPlaceMatchesRepeatedAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64, 255, 256, 257} {
		for trial := 0; trial < 20; trial++ {
			batch := make([]Vector, rng.Intn(9))
			for i := range batch {
				batch[i] = randVector(rng, dim)
			}
			base := randVector(rng, dim)
			want := base.Clone()
			for _, o := range batch {
				// The original scalar loop, kept inline as the oracle.
				for i := range want {
					want[i] += o[i]
				}
			}
			got := base.Clone()
			for _, o := range batch {
				got.AddInPlace(o)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("dim %d trial %d: lane %d = %#x, want %#x", dim, trial, i, uint64(got[i]), uint64(want[i]))
				}
			}
		}
	}
}

// TestAccumulatePathsAgree checks the three accumulation entry points —
// AddInPlace, AccumulateInto over raw lanes, and AccumulateWireInto over
// the wire encoding — land on identical sums.
func TestAccumulatePathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range []int{0, 1, 3, 4, 6, 256, 301} {
		for trial := 0; trial < 10; trial++ {
			src := randVector(rng, dim)
			lanes := make([]uint64, dim)
			for i, r := range src {
				lanes[i] = uint64(r)
			}
			be := src.AppendWire(nil)

			a := randVector(rng, dim)
			b := a.Clone()
			c := a.Clone()
			a.AddInPlace(src)
			AccumulateInto(b, lanes)
			AccumulateWireInto(c, be)
			for i := range a {
				if a[i] != b[i] || a[i] != c[i] {
					t.Fatalf("dim %d trial %d lane %d: AddInPlace %#x, AccumulateInto %#x, AccumulateWireInto %#x",
						dim, trial, i, uint64(a[i]), uint64(b[i]), uint64(c[i]))
				}
			}
		}
	}
}

// TestDigestGolden locks Digest to the pre-rewrite output: these constants
// were produced by the original per-element loop, and glimmerd shutdown
// reports and sim traces compare digests across versions, so they must
// never drift.
func TestDigestGolden(t *testing.T) {
	cases := []struct {
		name string
		v    Vector
		want string
	}{
		{"empty", Vector{}, "cbf29ce484222325"},
		{"unit5", FromFloats([]float64{0, 0.25, 0.5, 0.75, 1}), "a89e3577b7b0a0f5"},
		{"wrap5", Vector{0, 1, Ring(^uint64(0)), 1 << 63, 0x0123456789ABCDEF}, "309ec80d9171d42a"},
	}
	big := NewVector(256)
	for i := range big {
		big[i] = Ring(uint64(i)*0x9E3779B97F4A7C15 + 1)
	}
	cases = append(cases, struct {
		name string
		v    Vector
		want string
	}{"dim256", big, "43c5bbe86c5682fc"})
	for _, tc := range cases {
		if got := tc.v.Digest(); got != tc.want {
			t.Errorf("%s: Digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestAccumulateAllocFree pins the wide-lane paths' zero-allocation
// contract on the shard hot path.
func TestAccumulateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	dst := NewVector(256)
	src := NewVector(256)
	lanes := make([]uint64, 256)
	be := src.AppendWire(nil)
	if got := testing.AllocsPerRun(100, func() {
		dst.AddInPlace(src)
		AccumulateInto(dst, lanes)
		AccumulateWireInto(dst, be)
	}); got > 0 {
		t.Errorf("wide-lane accumulate: %.1f allocs/op, want 0", got)
	}
}

func BenchmarkAccumulateWireInto(b *testing.B) {
	dst := NewVector(256)
	be := NewVector(256).AppendWire(nil)
	b.SetBytes(int64(len(be)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AccumulateWireInto(dst, be)
	}
}

func BenchmarkAddInPlace(b *testing.B) {
	dst := NewVector(256)
	src := NewVector(256)
	b.SetBytes(256 * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst.AddInPlace(src)
	}
}
