package service

import (
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/race"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// allocRaws fabricates n encoded contributions with distinct vectors
// (distinct digests) for round, optionally signed.
func allocRaws(t testing.TB, n, dim int, round uint64, key *xcrypto.SigningKey) [][]byte {
	t.Helper()
	raws := make([][]byte, n)
	for i := range raws {
		sc := glimmer.SignedContribution{
			ServiceName: "alloc.example",
			Round:       round,
			Measurement: tee.Measurement{1},
			Blinded:     make(fixed.Vector, dim),
			Confidence:  1,
		}
		for j := range sc.Blinded {
			sc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + uint64(j))
		}
		if key != nil {
			sig, err := key.Sign(sc.SignedBytes())
			if err != nil {
				t.Fatal(err)
			}
			sc.Signature = sig
		}
		raws[i] = glimmer.EncodeSignedContribution(sc)
	}
	return raws
}

// TestDedupInsertAllocFree pins the tentpole contract on the service
// layer: with a pre-sized cohort and signature verification out of the
// way (nil Verify — the pre-authenticated mode), the steady-state
// decode→dedup→accumulate path performs zero heap allocations per
// contribution.
func TestDedupInsertAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const runs = 300
	raws := allocRaws(t, runs+50, 64, 7, nil)
	p := testRound(t, TenantConfig{
		Name:           "alloc.example",
		Dim:            64,
		Workers:        1,
		Shards:         1,
		ExpectedCohort: len(raws),
	}, 7)
	// Warm the arena pool and the first map buckets.
	errs := make([]error, 1)
	if p.addBatchErrs(raws[:1], errs); errs[0] != nil {
		t.Fatal(errs[0])
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		i++
		if p.addBatchErrs(raws[i:i+1], errs); errs[0] != nil {
			t.Fatal(errs[0])
		}
	}); got > 0 {
		t.Errorf("decode+dedup insert: %.1f allocs/op, want 0", got)
	}
	if p.Count() != i+1 {
		t.Fatalf("count = %d, want %d", p.Count(), i+1)
	}
}

// TestNilVerifySkipsSignatureCheck locks in the pre-authenticated mode's
// semantics: unsigned contributions are accepted, every other policy check
// still applies.
func TestNilVerifySkipsSignatureCheck(t *testing.T) {
	raws := allocRaws(t, 2, 8, 3, nil)
	p := testRound(t, TenantConfig{Name: "alloc.example", Dim: 8, Workers: 1, Shards: 1}, 3)
	if err := add(p, raws[0])[0]; err != nil {
		t.Fatalf("unsigned contribution refused in nil-Verify mode: %v", err)
	}
	if err := add(p, raws[0])[0]; err != ErrDuplicate {
		t.Fatalf("duplicate err = %v, want ErrDuplicate", err)
	}
	wrongRound := allocRaws(t, 1, 8, 4, nil)
	if err := add(p, wrongRound[0])[0]; err != ErrWrongRound {
		t.Fatalf("wrong-round err = %v, want ErrWrongRound", err)
	}
	wrongDim := allocRaws(t, 1, 9, 3, nil)
	if err := add(p, wrongDim[0])[0]; err != ErrWrongDim {
		t.Fatalf("wrong-dim err = %v, want ErrWrongDim", err)
	}
}

// TestVerifyStillEnforcedWithKey guards against the nil-Verify escape
// hatch weakening the signed path: with a key set, a bogus signature is
// still refused.
func TestVerifyStillEnforcedWithKey(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	good := allocRaws(t, 1, 8, 3, key)
	bad := allocRaws(t, 1, 8, 3, nil) // unsigned
	p := testRound(t, TenantConfig{Name: "alloc.example", Verify: key.Public(), Dim: 8, Workers: 1, Shards: 1}, 3)
	if err := add(p, good[0])[0]; err != nil {
		t.Fatalf("valid signed contribution refused: %v", err)
	}
	if err := add(p, bad[0])[0]; err != ErrBadSignature {
		t.Fatalf("unsigned err = %v, want ErrBadSignature", err)
	}
}

// TestPooledScratchNotAliasedAcrossConcurrentAddBatch is the -race guard
// for the pooled arena on signed traffic: many goroutines push overlapping
// frames through a pipeline that fans each one out, and the sealed aggregate
// must equal the exact element-wise sum of every distinct contribution. An
// arena or view recycled while another goroutine still reads it would
// corrupt the sum (and trip the race detector).
func TestPooledScratchNotAliasedAcrossConcurrentAddBatch(t *testing.T) {
	const (
		dim       = 32
		perCaller = 64
		callers   = 6
		round     = uint64(5)
	)
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	all := allocRaws(t, callers*perCaller, dim, round, key)
	want := fixed.NewVector(dim)
	for _, raw := range all {
		sc, err := glimmer.DecodeSignedContribution(raw)
		if err != nil {
			t.Fatal(err)
		}
		want.AddInPlace(sc.Blinded)
	}
	p := testRound(t, TenantConfig{
		Name:           "alloc.example",
		Verify:         key.Public(),
		Dim:            dim,
		Workers:        4,
		ExpectedCohort: len(all),
	}, round)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		batch := all[c*perCaller : (c+1)*perCaller]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, err := range add(p, batch...) {
				if err != nil {
					t.Errorf("addBatchErrs: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Count() != len(all) {
		t.Fatalf("count = %d, want %d", p.Count(), len(all))
	}
	got := p.Sum()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %v, want %v (arena aliasing?)", i, got[i], want[i])
		}
	}
}

// TestRegistryIngestBatchOneAlloc pins what a routed frame may allocate:
// the error slice IngestBatch returns, and nothing else — every round
// group writes into slots from the router's one pooled scratch, however
// many tenants the frame interleaves (here three: two vector tenants and a
// one-bit one, verification off).
func TestRegistryIngestBatchOneAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const round, perTenant, runs = uint64(7), 16, 100
	tenants := []struct {
		name string
		dim  int
	}{{"alloc.example", 64}, {"maps.alloc.example", 64}, {"bot.alloc.example", 1}}
	for _, tc := range []struct {
		name    string
		tenants int
		max     float64
	}{{"single-tenant", 1, 1}, {"three-tenant", 3, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry(0)
			for _, tn := range tenants[:tc.tenants] {
				if _, err := r.AddTenant(TenantConfig{
					Name: tn.name, Dim: tn.dim, Workers: 1, Shards: 1,
					ExpectedCohort: (runs + 2) * perTenant,
				}); err != nil {
					t.Fatal(err)
				}
			}
			frames := make([][][]byte, runs+2)
			for f := range frames {
				for i := 0; i < perTenant; i++ {
					for _, tn := range tenants[:tc.tenants] {
						frames[f] = append(frames[f], tenantContribution(t, nil, tn.name, round, tn.dim, f*perTenant+i))
					}
				}
			}
			r.IngestBatch(frames[0]) // create the rounds, warm scratches and arenas
			f := 0
			if got := testing.AllocsPerRun(runs, func() {
				f++
				if accepted, _ := r.IngestBatch(frames[f]); accepted != len(frames[f]) {
					t.Fatalf("accepted %d of %d", accepted, len(frames[f]))
				}
			}); got > tc.max {
				t.Errorf("Registry.IngestBatch: %.2f allocs/op, want <= %v", got, tc.max)
			}
		})
	}
}

// TestRouteScratchReleaseDropsFrame: a frame that split into a large group
// followed by a small one must not ride back into the pool inside the
// scratch — the views past the last group's length point into the caller's
// frame buffer too.
func TestRouteScratchReleaseDropsFrame(t *testing.T) {
	frame := [][]byte{{1}, {2}, {3}, {4}}
	rs := getRouteScratch(len(frame))
	rs.batch = append(rs.batch[:0], frame...) // the large group
	rs.batch = append(rs.batch[:0], frame[0]) // then a one-item group
	held := rs.batch[:cap(rs.batch)]
	rs.release()
	for i, view := range held {
		if view != nil {
			t.Errorf("released scratch still holds frame view %d", i)
		}
	}
}
