package service

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// signedVector fabricates a signed contribution carrying the given vector.
func signedVector(t *testing.T, key *xcrypto.SigningKey, name string, round uint64, v fixed.Vector) []byte {
	t.Helper()
	sc := glimmer.SignedContribution{
		ServiceName: name,
		Round:       round,
		Measurement: tee.Measurement{1, 2, 3},
		Blinded:     v,
	}
	sig, err := key.Sign(sc.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	sc.Signature = sig
	return glimmer.EncodeSignedContribution(sc)
}

// testTenant registers cfg as the only tenant of a fresh registry.
func testTenant(t testing.TB, cfg TenantConfig) (*Registry, *RoundManager) {
	t.Helper()
	r := NewRegistry(0)
	tn, err := r.AddTenant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, tn.Manager()
}

// testRound returns one round of a fresh single-tenant registry.
func testRound(t testing.TB, cfg TenantConfig, round uint64) *Pipeline {
	t.Helper()
	_, m := testTenant(t, cfg)
	return m.Round(round)
}

// add hands raws to p's ingest plan directly, past the router, so the
// round's own checks answer for what the router would have sent elsewhere.
func add(p *Pipeline, raws ...[]byte) []error {
	errs := make([]error, len(raws))
	p.addBatchErrs(raws, errs)
	return errs
}

func randomVector(rng *rand.Rand, dim int) fixed.Vector {
	v := fixed.NewVector(dim)
	for i := range v {
		v[i] = fixed.Ring(rng.Uint64())
	}
	return v
}

// TestPipelineConcurrentErrorPaths drives every rejection path from many
// goroutines at once (run under -race in CI): wrong service, wrong round,
// wrong dimension, unvetted measurement, forged signature, garbage bytes,
// and a shared contribution that exactly one goroutine may win.
func TestPipelineConcurrentErrorPaths(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const (
		dim        = 8
		round      = uint64(3)
		goroutines = 8
	)
	p := testRound(t, TenantConfig{
		Name:    "svc",
		Verify:  key.Public(),
		Dim:     dim,
		Workers: 4,
		Shards:  4,
		Vetted:  []tee.Measurement{{1, 2, 3}},
	}, round)

	shared := signedVector(t, key, "svc", round, fixed.NewVector(dim))
	rng := rand.New(rand.NewSource(42))
	goods := make([][]byte, goroutines)
	for i := range goods {
		goods[i] = signedVector(t, key, "svc", round, randomVector(rng, dim))
	}
	wrongService := signedVector(t, key, "other", round, fixed.NewVector(dim))
	wrongRound := signedVector(t, key, "svc", round+1, fixed.NewVector(dim))
	wrongDim := signedVector(t, key, "svc", round, fixed.NewVector(dim+1))
	unvetted := func() []byte {
		sc := glimmer.SignedContribution{
			ServiceName: "svc", Round: round,
			Measurement: tee.Measurement{9}, Blinded: fixed.NewVector(dim),
		}
		sig, err := key.Sign(sc.SignedBytes())
		if err != nil {
			t.Fatal(err)
		}
		sc.Signature = sig
		return glimmer.EncodeSignedContribution(sc)
	}()
	forged := func() []byte {
		sc, err := glimmer.DecodeSignedContribution(shared)
		if err != nil {
			t.Fatal(err)
		}
		sc.Blinded[0] = 99
		return glimmer.EncodeSignedContribution(sc)
	}()

	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		dupAccepts int
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := add(p, goods[g])[0]; err != nil {
				t.Errorf("good contribution %d refused: %v", g, err)
			}
			switch err := add(p, shared)[0]; {
			case err == nil:
				mu.Lock()
				dupAccepts++
				mu.Unlock()
			case !errors.Is(err, ErrDuplicate):
				t.Errorf("shared contribution err = %v, want ErrDuplicate", err)
			}
			for _, c := range []struct {
				raw  []byte
				want error
			}{
				{wrongService, ErrWrongService},
				{wrongRound, ErrWrongRound},
				{wrongDim, ErrWrongDim},
				{unvetted, ErrUnknownGlimmer},
				{forged, ErrBadSignature},
			} {
				if err := add(p, c.raw)[0]; !errors.Is(err, c.want) {
					t.Errorf("err = %v, want %v", err, c.want)
				}
			}
			if err := add(p, []byte("garbage"))[0]; err == nil {
				t.Error("garbage accepted")
			}
		}(g)
	}
	wg.Wait()

	if dupAccepts != 1 {
		t.Fatalf("shared contribution accepted %d times, want exactly 1", dupAccepts)
	}
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	if want := goroutines + 1; p.Count() != want {
		t.Fatalf("count = %d, want %d", p.Count(), want)
	}
	// Per goroutine: 6 deterministic rejections plus (goroutines-1)/goroutines
	// of the shared duplicates.
	if want := goroutines*6 + goroutines - 1; p.Rejected() != want {
		t.Fatalf("rejected = %d, want %d", p.Rejected(), want)
	}
}

// TestPipelineShardedSumEqualsSerial is the property test: a heavily
// sharded pipeline fed concurrently in batches must produce exactly the
// serial aggregator's sum — ring addition is commutative, so sharding and
// reordering must not be observable.
func TestPipelineShardedSumEqualsSerial(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const (
		dim     = 32
		round   = uint64(1)
		clients = 96
	)
	rng := rand.New(rand.NewSource(7))
	raws := make([][]byte, clients)
	for i := range raws {
		raws[i] = signedVector(t, key, "svc", round, randomVector(rng, dim))
	}

	serial := testRound(t, TenantConfig{
		Name:    "svc",
		Verify:  key.Public(),
		Dim:     dim,
		Workers: 1,
		Shards:  1,
	}, round)
	for _, raw := range raws {
		if err := add(serial, raw)[0]; err != nil {
			t.Fatal(err)
		}
	}

	sharded := testRound(t, TenantConfig{
		Name:    "svc",
		Verify:  key.Public(),
		Dim:     dim,
		Workers: 8,
		Shards:  16,
	}, round)
	for _, err := range add(sharded, raws...) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sharded.Seal(); err != nil {
		t.Fatal(err)
	}

	if sharded.Count() != serial.Count() {
		t.Fatalf("count: sharded %d != serial %d", sharded.Count(), serial.Count())
	}
	want, got := serial.Sum(), sharded.Sum()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("sum[%d]: sharded %d != serial %d", i, got[i], want[i])
		}
	}
	wantMean, err := serial.Mean()
	if err != nil {
		t.Fatal(err)
	}
	gotMean, err := sharded.Mean()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantMean {
		if wantMean[i] != gotMean[i] {
			t.Fatalf("mean[%d]: sharded %d != serial %d", i, gotMean[i], wantMean[i])
		}
	}
}

// TestPipelineLifecycle exercises open → sealed → closed.
func TestPipelineLifecycle(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim, round = 4, uint64(1)
	p := testRound(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 2, Shards: 2,
	}, round)
	good := signedVector(t, key, "svc", round, fixed.FromFloats([]float64{0.5, 0.5, 0.5, 0.5}))
	if err := add(p, good)[0]; err != nil {
		t.Fatal(err)
	}

	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := p.Seal(); err != nil {
		t.Fatalf("second seal: %v", err)
	}
	late := signedVector(t, key, "svc", round, fixed.NewVector(dim))
	if err := add(p, late)[0]; !errors.Is(err, ErrRoundSealed) {
		t.Fatalf("add after seal err = %v, want ErrRoundSealed", err)
	}
	for _, err := range add(p, late) {
		if !errors.Is(err, ErrRoundSealed) {
			t.Fatalf("batch after seal err = %v, want ErrRoundSealed", err)
		}
	}
	if got := p.Rejected(); got != 2 {
		t.Fatalf("rejected after sealed refusals = %d, want 2", got)
	}

	// Dropout correction is valid while sealed and must move the sum.
	before := p.Sum()
	mask := fixed.FromFloats([]float64{1, 0, 0, 0})
	if err := p.CorrectDropout(mask); err != nil {
		t.Fatalf("dropout while sealed: %v", err)
	}
	after := p.Sum()
	if after[0] != before[0]+mask[0] {
		t.Fatalf("dropout correction not applied: %v -> %v", before[0], after[0])
	}
	if err := p.CorrectDropout(fixed.NewVector(dim + 1)); !errors.Is(err, ErrWrongDim) {
		t.Fatalf("dropout dim err = %v, want ErrWrongDim", err)
	}

	p.Close()
	p.Close() // idempotent
	if err := p.CorrectDropout(mask); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("dropout after close err = %v, want ErrRoundClosed", err)
	}
	if err := add(p, late)[0]; !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("add after close err = %v, want ErrRoundClosed", err)
	}
	if err := p.Seal(); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("seal after close err = %v, want ErrRoundClosed", err)
	}
	if p.Count() != 1 {
		t.Fatalf("count after close = %d, want 1", p.Count())
	}
	if got := p.Sum(); got[0] != after[0] {
		t.Fatalf("sum changed after close: %v != %v", got[0], after[0])
	}
}

// TestRoundManagerOverlappingRounds ingests for two rounds at once and
// walks them through independent lifecycles.
func TestRoundManagerOverlappingRounds(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim = 8
	r, m := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 2, Shards: 2,
	})

	rng := rand.New(rand.NewSource(11))
	var batch [][]byte
	perRound := map[uint64]int{1: 5, 2: 3}
	for round, n := range perRound {
		for i := 0; i < n; i++ {
			batch = append(batch, signedVector(t, key, "svc", round, randomVector(rng, dim)))
		}
	}
	accepted, errs := r.IngestBatch(batch)
	if accepted != len(batch) {
		t.Fatalf("accepted = %d, want %d (errs: %v)", accepted, len(batch), errs)
	}
	for round, n := range perRound {
		if got := m.Round(round).Count(); got != n {
			t.Fatalf("round %d count = %d, want %d", round, got, n)
		}
	}

	// Sealing round 1 leaves round 2 ingesting.
	if err := m.Seal(1); err != nil {
		t.Fatal(err)
	}
	late1 := signedVector(t, key, "svc", 1, randomVector(rng, dim))
	if err := r.Ingest(late1); !errors.Is(err, ErrRoundSealed) {
		t.Fatalf("round 1 straggler err = %v, want ErrRoundSealed", err)
	}
	if err := r.Ingest(signedVector(t, key, "svc", 2, randomVector(rng, dim))); err != nil {
		t.Fatalf("round 2 ingest after round 1 seal: %v", err)
	}

	p2 := m.Close(2)
	if p2.Count() != perRound[2]+1 {
		t.Fatalf("round 2 count = %d, want %d", p2.Count(), perRound[2]+1)
	}
	// A closed round stays closed for stragglers until forgotten.
	if err := r.Ingest(signedVector(t, key, "svc", 2, randomVector(rng, dim))); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("round 2 straggler err = %v, want ErrRoundClosed", err)
	}

	if got := m.Rounds(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("rounds = %v, want [1 2]", got)
	}
	m.Forget(2)
	if got := m.Rounds(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rounds after forget = %v, want [1]", got)
	}

	// Bytes naming the tenant but no round are the manager's to refuse.
	noRound := wire.NewWriter().String("svc").Finish()
	if err := r.Ingest(noRound); err == nil {
		t.Fatal("bytes without a round routed")
	}
	if _, errs := r.IngestBatch([][]byte{noRound}); errs[0] == nil {
		t.Fatal("batch item without a round accepted")
	}
	if got := m.Rejected(); got != 2 {
		t.Fatalf("manager rejected = %d, want 2 (the roundless refusals)", got)
	}
}

// TestRoundManagerCapsIngestRounds confirms a hostile batch naming many
// distinct rounds cannot allocate pipelines without bound: ingest refuses
// new rounds past MaxRounds, while already-live rounds keep ingesting.
func TestRoundManagerCapsIngestRounds(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim = 4
	r, m := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 1, Shards: 1,
		MaxRounds: 2,
	})

	rng := rand.New(rand.NewSource(5))
	var batch [][]byte
	for round := uint64(1); round <= 5; round++ {
		batch = append(batch, signedVector(t, key, "svc", round, randomVector(rng, dim)))
	}
	accepted, errs := r.IngestBatch(batch)
	if accepted != 2 {
		t.Fatalf("accepted = %d, want 2 (errs: %v)", accepted, errs)
	}
	capped := 0
	for _, err := range errs {
		if errors.Is(err, ErrTooManyRounds) {
			capped++
		}
	}
	if capped != 3 {
		t.Fatalf("ErrTooManyRounds count = %d, want 3", capped)
	}
	if got := len(m.Rounds()); got != 2 {
		t.Fatalf("live rounds = %d, want 2", got)
	}
	// Existing rounds still ingest at the cap.
	live := m.Rounds()[0]
	if err := r.Ingest(signedVector(t, key, "svc", live, randomVector(rng, dim))); err != nil {
		t.Fatalf("ingest for live round at cap: %v", err)
	}
	// Forgetting a round frees a slot for a new one.
	m.Forget(live)
	if err := r.Ingest(signedVector(t, key, "svc", 99, randomVector(rng, dim))); err != nil {
		t.Fatalf("ingest after forget: %v", err)
	}
}

// TestRoundManagerGatesCreationOnSignature confirms unauthenticated bytes
// cannot allocate rounds: only a contribution that verifies brings a
// pipeline into existence.
func TestRoundManagerGatesCreationOnSignature(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim = 4
	r, m := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 1, Shards: 1,
	})

	rng := rand.New(rand.NewSource(3))
	// Forged signatures naming many distinct rounds: every item rejected,
	// zero rounds created.
	var forged [][]byte
	for round := uint64(1); round <= 50; round++ {
		forged = append(forged, signedVector(t, attacker, "svc", round, randomVector(rng, dim)))
	}
	accepted, errs := r.IngestBatch(forged)
	if accepted != 0 {
		t.Fatalf("accepted = %d forged contributions", accepted)
	}
	for _, err := range errs {
		if !errors.Is(err, ErrBadSignature) {
			t.Fatalf("forged err = %v, want ErrBadSignature", err)
		}
	}
	if got := m.Rounds(); len(got) != 0 {
		t.Fatalf("forged traffic created rounds %v", got)
	}
	if err := r.Ingest(signedVector(t, attacker, "svc", 7, randomVector(rng, dim))); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("single forged ingest err = %v, want ErrBadSignature", err)
	}
	if got := m.Rounds(); len(got) != 0 {
		t.Fatalf("single forged ingest created rounds %v", got)
	}

	// A mixed batch: the valid item creates the round and lands; forgeries
	// for the same round are rejected by the pipeline.
	mixed := [][]byte{
		signedVector(t, attacker, "svc", 9, randomVector(rng, dim)),
		signedVector(t, key, "svc", 9, randomVector(rng, dim)),
		signedVector(t, attacker, "svc", 9, randomVector(rng, dim)),
	}
	accepted, errs = r.IngestBatch(mixed)
	if accepted != 1 {
		t.Fatalf("mixed batch accepted = %d, want 1 (errs: %v)", accepted, errs)
	}
	if errs[1] != nil {
		t.Fatalf("valid item rejected: %v", errs[1])
	}
	if got := m.Round(9).Count(); got != 1 {
		t.Fatalf("round 9 count = %d, want 1", got)
	}
}

// TestRoundManagerRoundWindow confirms a valid contribution naming a
// round far from the ones in flight cannot create a pipeline — the
// defense against a vetted client churning rounds with far-future round
// numbers.
func TestRoundManagerRoundWindow(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim = 4
	r, _ := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 1, Shards: 1,
		RoundWindow: 16,
	})

	rng := rand.New(rand.NewSource(6))
	// Two contributions establish round 100 as the window anchor.
	for i := 0; i < 2; i++ {
		if err := r.Ingest(signedVector(t, key, "svc", 100, randomVector(rng, dim))); err != nil {
			t.Fatalf("anchor round: %v", err)
		}
	}
	if err := r.Ingest(signedVector(t, key, "svc", 1<<60, randomVector(rng, dim))); !errors.Is(err, ErrRoundOutOfWindow) {
		t.Fatalf("far-future round err = %v, want ErrRoundOutOfWindow", err)
	}
	if err := r.Ingest(signedVector(t, key, "svc", 1, randomVector(rng, dim))); !errors.Is(err, ErrRoundOutOfWindow) {
		t.Fatalf("far-past round err = %v, want ErrRoundOutOfWindow", err)
	}
	if err := r.Ingest(signedVector(t, key, "svc", 113, randomVector(rng, dim))); err != nil {
		t.Fatalf("in-window round: %v", err)
	}

	// Before any round establishes, a stray far-off round cannot wedge the
	// manager: it is admitted (bounded by the cap), and real rounds stay
	// admissible afterwards.
	fresh, _ := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 1, Shards: 1,
		RoundWindow: 16,
	})
	if err := fresh.Ingest(signedVector(t, key, "svc", 1<<50, randomVector(rng, dim))); err != nil {
		t.Fatalf("stray far round before establishment: %v", err)
	}
	if err := fresh.Ingest(signedVector(t, key, "svc", 5, randomVector(rng, dim))); err != nil {
		t.Fatalf("real round after stray far round: %v", err)
	}
}

// TestRoundManagerEvictAtCap confirms the unattended-daemon policy: at
// the cap, a new verified round evicts the least-filled live round, so a
// round a real cohort has filled survives a spray of fresh round numbers.
func TestRoundManagerEvictAtCap(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const dim = 4
	r, m := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 1, Shards: 1,
		MaxRounds: 2, EvictAtCap: true,
	})

	rng := rand.New(rand.NewSource(4))
	// Round 1 is established with two contributions; rounds 2..4 arrive
	// with one each and must evict each other, never round 1.
	for _, round := range []uint64{1, 1, 2, 3, 4} {
		if err := r.Ingest(signedVector(t, key, "svc", round, randomVector(rng, dim))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := m.Rounds(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("live rounds = %v, want [1 4]", got)
	}
	if got := m.Round(1).Count(); got != 2 {
		t.Fatalf("established round count = %d, want 2", got)
	}

	// On a count tie the highest round number loses: an ascending spray
	// evicts its own latest round, not the earlier-opened one.
	tieReg, tie := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 1, Shards: 1,
		MaxRounds: 2, EvictAtCap: true,
	})
	for _, round := range []uint64{10, 11, 12} {
		if err := tieReg.Ingest(signedVector(t, key, "svc", round, randomVector(rng, dim))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := tie.Rounds(); len(got) != 2 || got[0] != 10 || got[1] != 12 {
		t.Fatalf("live rounds after tie eviction = %v, want [10 12]", got)
	}

	// A sealed round is never an eviction victim, even at Count()==0: its
	// anti-reopen guarantee must survive cap pressure. With every live
	// round unevictable, ingest for new rounds refuses instead.
	sealedReg, sealed := testTenant(t, TenantConfig{
		Name: "svc", Verify: key.Public(), Dim: dim, Workers: 1, Shards: 1,
		MaxRounds: 2, EvictAtCap: true,
	})
	if err := sealed.Seal(20); err != nil {
		t.Fatal(err)
	}
	sealed.Close(21)
	if err := sealedReg.Ingest(signedVector(t, key, "svc", 22, randomVector(rng, dim))); !errors.Is(err, ErrTooManyRounds) {
		t.Fatalf("ingest with only sealed/closed rounds err = %v, want ErrTooManyRounds", err)
	}
	if got := sealed.Rounds(); len(got) != 2 || got[0] != 20 || got[1] != 21 {
		t.Fatalf("sealed/closed rounds = %v, want [20 21]", got)
	}
	if err := sealedReg.Ingest(signedVector(t, key, "svc", 20, randomVector(rng, dim))); !errors.Is(err, ErrRoundSealed) {
		t.Fatalf("straggler to sealed round err = %v, want ErrRoundSealed", err)
	}
}
