package service

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// tenantContribution fabricates an encoded contribution for a tenant,
// signed when key is non-nil, with a distinct vector per index.
func tenantContribution(t testing.TB, key *xcrypto.SigningKey, name string, round uint64, dim, i int) []byte {
	t.Helper()
	sc := glimmer.SignedContribution{
		ServiceName: name,
		Round:       round,
		Measurement: tee.Measurement{1},
		Blinded:     make(fixed.Vector, dim),
		Confidence:  1,
	}
	for j := range sc.Blinded {
		sc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + round*31 + uint64(j))
	}
	if key != nil {
		sig, err := key.Sign(sc.SignedBytes())
		if err != nil {
			t.Fatal(err)
		}
		sc.Signature = sig
	}
	return glimmer.EncodeSignedContribution(sc)
}

// twoTenantRegistry assembles a registry with two signing tenants.
func twoTenantRegistry(t testing.TB) (*Registry, map[string]*xcrypto.SigningKey) {
	t.Helper()
	r := NewRegistry(0)
	keys := make(map[string]*xcrypto.SigningKey)
	for _, spec := range []struct {
		name string
		dim  int
	}{{"alpha.example", 4}, {"beta.example", 2}} {
		key, err := xcrypto.NewSigningKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[spec.name] = key
		if _, err := r.AddTenant(TenantConfig{
			Name:   spec.name,
			Verify: key.Public(),
			Dim:    spec.dim,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return r, keys
}

func TestRegistryRoutesBatchAcrossTenants(t *testing.T) {
	r, keys := twoTenantRegistry(t)
	var raws [][]byte
	// Interleave the two tenants plus one unknown tenant and garbage.
	for i := 0; i < 4; i++ {
		raws = append(raws, tenantContribution(t, keys["alpha.example"], "alpha.example", 1, 4, i))
		raws = append(raws, tenantContribution(t, keys["beta.example"], "beta.example", 1, 2, i))
	}
	raws = append(raws,
		tenantContribution(t, keys["alpha.example"], "ghost.example", 1, 4, 0),
		[]byte("garbage"))

	accepted, errs := r.IngestBatch(raws)
	if accepted != 8 {
		t.Fatalf("accepted = %d, want 8", accepted)
	}
	for i := 0; i < 8; i++ {
		if errs[i] != nil {
			t.Fatalf("item %d refused: %v", i, errs[i])
		}
	}
	if !errors.Is(errs[8], ErrUnknownTenant) {
		t.Fatalf("unknown tenant err = %v", errs[8])
	}
	if errs[9] == nil {
		t.Fatal("garbage accepted")
	}
	if got := r.Rejected(); got != 2 {
		t.Fatalf("registry rejected = %d, want 2", got)
	}
	for name, wantDim := range map[string]int{"alpha.example": 4, "beta.example": 2} {
		tn, ok := r.Tenant(name)
		if !ok {
			t.Fatalf("tenant %s missing", name)
		}
		p, ok := tn.Manager().Lookup(1)
		if !ok || p.Count() != 4 {
			t.Fatalf("tenant %s round 1 count = %v, want 4", name, p)
		}
		if tn.Config().Dim != wantDim {
			t.Fatalf("tenant %s dim = %d", name, tn.Config().Dim)
		}
	}

	// A second frame crosses every routing outcome at once, journaled: two
	// rounds per tenant, rounds that do not exist yet (alpha's 2, whose first
	// item fails preverify and whose second creates it; beta's 3, which no
	// item creates), duplicates on an existing round, an unknown tenant,
	// garbage, and bytes that name a tenant but carry no round.
	tape := new(tapeJournal)
	r.SetJournal(tape)
	alpha, beta := keys["alpha.example"], keys["beta.example"]
	noRound := wire.NewWriter().String("alpha.example").Finish()
	frame := [][]byte{
		tenantContribution(t, alpha, "alpha.example", 1, 4, 10), // 0 accepted
		tenantContribution(t, beta, "beta.example", 2, 2, 0),    // 1 creates beta/2
		tenantContribution(t, beta, "alpha.example", 2, 4, 0),   // 2 fails preverify
		[]byte("garbage"), // 3 registry
		tenantContribution(t, alpha, "alpha.example", 2, 4, 1), // 4 creates alpha/2
		tenantContribution(t, alpha, "ghost.example", 2, 4, 0), // 5 registry
		raws[1], // 6 duplicate of beta/1's first
		raws[0], // 7 duplicate of alpha/1's first
		noRound, // 8 alpha's manager
		tenantContribution(t, beta, "beta.example", 2, 2, 1),    // 9 accepted
		tenantContribution(t, alpha, "alpha.example", 1, 4, 11), // 10 accepted
		tenantContribution(t, alpha, "beta.example", 3, 2, 0),   // 11 fails preverify
	}
	accepted, errs = r.IngestBatch(frame)
	if accepted != 5 {
		t.Fatalf("second frame accepted = %d, want 5", accepted)
	}
	for i, want := range []error{nil, nil, ErrBadSignature, nil, nil, ErrUnknownTenant,
		ErrDuplicate, ErrDuplicate, nil, nil, nil, ErrBadSignature} {
		switch {
		case want != nil && !errors.Is(errs[i], want):
			t.Errorf("item %d err = %v, want %v", i, errs[i], want)
		case want == nil && (i == 3 || i == 8) && errs[i] == nil:
			t.Errorf("item %d (unroutable) accepted", i)
		case want == nil && i != 3 && i != 8 && errs[i] != nil:
			t.Errorf("item %d refused: %v", i, errs[i])
		}
	}
	ta, _ := r.Tenant("alpha.example")
	tb, _ := r.Tenant("beta.example")
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"registry rejected", r.Rejected(), 4},
		{"alpha manager rejected", ta.Manager().Rejected(), 2},
		{"beta manager rejected", tb.Manager().Rejected(), 1},
		{"alpha/1 rejected", roundOf(t, ta, 1).Rejected(), 1},
		{"beta/1 rejected", roundOf(t, tb, 1).Rejected(), 1},
		{"alpha/1 count", roundOf(t, ta, 1).Count(), 6},
		{"alpha/2 count", roundOf(t, ta, 2).Count(), 1},
		{"beta/2 count", roundOf(t, tb, 2).Count(), 2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
	if _, ok := tb.Manager().Lookup(3); ok {
		t.Error("beta round 3 created by an item that failed preverify")
	}
	// One registry record before any tenant's; then each tenant in
	// first-seen order, its rounds in first-seen order, and its manager's
	// one record for the frame last.
	type entry struct {
		kind   RecordKind
		tenant string
		round  uint64
	}
	want := []entry{
		{Rejected, "", 0},
		{BatchAccepted, "alpha.example", 1}, {Rejected, "alpha.example", 1},
		{RoundCreated, "alpha.example", 2}, {BatchAccepted, "alpha.example", 2},
		{Rejected, "alpha.example", 0},
		{RoundCreated, "beta.example", 2}, {BatchAccepted, "beta.example", 2},
		{Rejected, "beta.example", 1},
		{Rejected, "beta.example", 0},
	}
	var got []entry
	for _, rec := range tape.recs {
		got = append(got, entry{rec.Kind, rec.Tenant, rec.Round})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("journal records (kind, tenant, round):\n got %v\nwant %v", got, want)
	}
}

// roundOf returns a round the test expects to exist.
func roundOf(t testing.TB, tn *Tenant, round uint64) *Pipeline {
	t.Helper()
	p, ok := tn.Manager().Lookup(round)
	if !ok {
		t.Fatalf("tenant %s has no round %d", tn.Name(), round)
	}
	return p
}

// TestRegistryCrossTenantForgery pins the isolation guarantee behind
// routing: one tenant's endorsed contribution re-encoded under another
// tenant's name routes there and dies on the signature (which covers the
// name), and the victim's sums never move.
func TestRegistryCrossTenantForgery(t *testing.T) {
	// Two tenants of identical shape, so the splice below fails on the
	// signature alone — the strongest form of the isolation claim.
	r := NewRegistry(0)
	keys := make(map[string]*xcrypto.SigningKey)
	for _, name := range []string{"alpha.example", "beta.example"} {
		key, err := xcrypto.NewSigningKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[name] = key
		if _, err := r.AddTenant(TenantConfig{Name: name, Verify: key.Public(), Dim: 2}); err != nil {
			t.Fatal(err)
		}
	}
	raw := tenantContribution(t, keys["alpha.example"], "alpha.example", 1, 2, 7)
	if err := r.Ingest(raw); err != nil {
		t.Fatalf("setup: %v", err)
	}
	// Alpha's endorsed contribution respelled under beta's name: routing
	// must deliver it to beta, whose signature check (the signature covers
	// the name) must kill it without creating any state.
	sc, err := glimmer.DecodeSignedContribution(raw)
	if err != nil {
		t.Fatal(err)
	}
	sc.ServiceName = "beta.example"
	spliced := glimmer.EncodeSignedContribution(sc)
	if err := r.Ingest(spliced); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("spliced contribution err = %v, want ErrBadSignature", err)
	}
	beta, _ := r.Tenant("beta.example")
	if _, ok := beta.Manager().Lookup(1); ok {
		t.Fatal("forged contribution created a round in the victim tenant")
	}
	if got := beta.Manager().Rejected(); got != 1 {
		t.Fatalf("victim tenant rejected = %d, want 1", got)
	}
}

func TestRegistryAddTenantValidation(t *testing.T) {
	r := NewRegistry(0)
	if _, err := r.AddTenant(TenantConfig{Name: "", Dim: 1}); err == nil {
		t.Error("empty tenant name accepted")
	}
	if _, err := r.AddTenant(TenantConfig{Name: "a.example", Dim: 0}); err == nil {
		t.Error("non-positive dimension accepted")
	}
	if _, err := r.AddTenant(TenantConfig{Name: "a.example", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddTenant(TenantConfig{Name: "a.example", Dim: 2}); !errors.Is(err, ErrTenantExists) {
		t.Errorf("duplicate tenant err = %v, want ErrTenantExists", err)
	}
	names := r.Tenants()
	if len(names) != 1 || names[0].Name() != "a.example" {
		t.Errorf("tenants = %v", names)
	}
}

func TestRegistryResolveHost(t *testing.T) {
	r := NewRegistry(0)
	hostCfg := glimmer.Config{ServiceName: "a.example", Dim: 3}
	if _, err := r.AddTenant(TenantConfig{Name: "a.example", Dim: 3, Glimmer: hostCfg}); err != nil {
		t.Fatal(err)
	}
	// Sole tenant: both its name and the legacy empty hello resolve.
	for _, name := range []string{"a.example", ""} {
		cfg, _, err := r.ResolveHost(name)
		if err != nil || cfg.ServiceName != "a.example" {
			t.Fatalf("ResolveHost(%q) = (%v, %v)", name, cfg, err)
		}
	}
	if _, _, err := r.ResolveHost("ghost.example"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown host err = %v", err)
	}
	// An ingest-only tenant does not host user sessions.
	if _, err := r.AddTenant(TenantConfig{Name: "ingest.example", Dim: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ResolveHost("ingest.example"); err == nil {
		t.Fatal("ingest-only tenant resolved as a host")
	}
	// With two tenants, the legacy empty hello is ambiguous.
	if _, _, err := r.ResolveHost(""); err == nil {
		t.Fatal("empty hello resolved against multiple tenants")
	}
}

// budgetRegistry builds a registry with two unverified (Verify == nil)
// tenants and a tiny shared budget, for eviction tests.
func budgetRegistry(t testing.TB, budget int) *Registry {
	t.Helper()
	r := NewRegistry(budget)
	for _, name := range []string{"a.example", "b.example"} {
		if _, err := r.AddTenant(TenantConfig{Name: name, Dim: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestBudgetCrossTenantFairEviction(t *testing.T) {
	r := budgetRegistry(t, 4)
	// Tenant a fills the whole budget with open rounds.
	for round := uint64(1); round <= 4; round++ {
		if err := r.Ingest(tenantContribution(t, nil, "a.example", round, 1, int(round))); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if got := r.Budget().Live(); got != 4 {
		t.Fatalf("budget live = %d, want 4", got)
	}
	// Tenant b's first round must evict from the heaviest tenant (a), and
	// among a's equally filled open rounds the highest round number loses.
	if err := r.Ingest(tenantContribution(t, nil, "b.example", 1, 1, 9)); err != nil {
		t.Fatalf("b admission: %v", err)
	}
	a, _ := r.Tenant("a.example")
	b, _ := r.Tenant("b.example")
	if rounds := a.Manager().Rounds(); len(rounds) != 3 || rounds[2] == 4 {
		t.Fatalf("tenant a rounds after eviction = %v, want [1 2 3]", rounds)
	}
	if p, ok := b.Manager().Lookup(1); !ok || p.Count() != 1 {
		t.Fatal("tenant b round not admitted after cross-tenant eviction")
	}
	if got := r.Budget().Live(); got != 4 {
		t.Fatalf("budget live = %d after eviction, want 4", got)
	}
}

// TestBudgetOutOfWindowRefusalEvictsNothing pins the admission ordering:
// a contribution refused by the RoundWindow must never touch the shared
// budget — otherwise a vetted client spraying out-of-window rounds could
// evict other tenants' rounds without ever creating one of its own.
func TestBudgetOutOfWindowRefusalEvictsNothing(t *testing.T) {
	r := NewRegistry(3)
	if _, err := r.AddTenant(TenantConfig{Name: "a.example", Dim: 1}); err != nil {
		t.Fatal(err)
	}
	windowed, err := r.AddTenant(TenantConfig{Name: "b.example", Dim: 1, RoundWindow: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Tenant a holds two open rounds; tenant b anchors its window with an
	// established round (two accepted contributions). Budget is now full.
	for round := uint64(1); round <= 2; round++ {
		if err := r.Ingest(tenantContribution(t, nil, "a.example", round, 1, int(round))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := r.Ingest(tenantContribution(t, nil, "b.example", 1, 1, 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Spraying far-out-of-window rounds at b must be refused before the
	// budget round-trip: nothing evicted anywhere.
	for round := uint64(1000); round < 1010; round++ {
		if err := r.Ingest(tenantContribution(t, nil, "b.example", round, 1, int(round))); !errors.Is(err, ErrRoundOutOfWindow) {
			t.Fatalf("round %d err = %v, want ErrRoundOutOfWindow", round, err)
		}
	}
	a, _ := r.Tenant("a.example")
	if rounds := a.Manager().Rounds(); len(rounds) != 2 {
		t.Fatalf("tenant a rounds = %v after out-of-window spray, want [1 2]", rounds)
	}
	if rounds := windowed.Manager().Rounds(); len(rounds) != 1 {
		t.Fatalf("tenant b rounds = %v, want [1]", rounds)
	}
	if got := r.Budget().Live(); got != 3 {
		t.Fatalf("budget live = %d, want 3", got)
	}
}

// TestOwnsGatesOnlyIngestCreation: a tenant with an ownership predicate
// refuses to create, from ingest, a round the predicate does not own —
// with ErrNotOwner, before the shared budget is looked at, booked once as
// a manager refusal and journaled once. Nothing else asks the predicate:
// an operator-created round it does not own takes ingest, and the
// journal replays into a registry of the same tenants without asking.
func TestOwnsGatesOnlyIngestCreation(t *testing.T) {
	var asked atomic.Int64
	tenants := []TenantConfig{
		{Name: "a.example", Dim: 1},
		{Name: "b.example", Dim: 1, Owns: func(round uint64) bool {
			asked.Add(1)
			return round%2 == 1
		}},
	}
	registry := func(j Journal) *Registry {
		r := NewRegistry(3)
		for _, cfg := range tenants {
			if _, err := r.AddTenant(cfg); err != nil {
				t.Fatal(err)
			}
		}
		if j != nil {
			r.SetJournal(j)
		}
		return r
	}
	tape := &tapeJournal{}
	r := registry(tape)
	for _, c := range []struct {
		name  string
		round uint64
	}{{"a.example", 1}, {"a.example", 2}, {"b.example", 1}} {
		if err := r.Ingest(tenantContribution(t, nil, c.name, c.round, 1, int(c.round))); err != nil {
			t.Fatalf("%s round %d: %v", c.name, c.round, err)
		}
	}
	// The budget is full: a refusal that reached it would evict a's rounds.
	for round := uint64(2); round <= 10; round += 2 {
		if err := r.Ingest(tenantContribution(t, nil, "b.example", round, 1, int(round))); !errors.Is(err, ErrNotOwner) {
			t.Fatalf("round %d err = %v, want ErrNotOwner", round, err)
		}
	}
	a, _ := r.Tenant("a.example")
	b, _ := r.Tenant("b.example")
	if rounds := a.Manager().Rounds(); len(rounds) != 2 {
		t.Errorf("tenant a rounds = %v after b's refusals, want [1 2]", rounds)
	}
	if rounds := b.Manager().Rounds(); !slices.Equal(rounds, []uint64{1}) {
		t.Errorf("tenant b rounds = %v, want [1]", rounds)
	}
	if got := b.Manager().Rejected(); got != 5 {
		t.Errorf("tenant b manager refusals = %d, want 5", got)
	}
	refusals := 0
	for _, rec := range tape.recs {
		if rec.Kind == Rejected && rec.Tenant == "b.example" {
			refusals += rec.Count
			if rec.Level != LevelManager {
				t.Errorf("refusal journaled at level %v, want LevelManager", rec.Level)
			}
		}
	}
	if refusals != 5 {
		t.Errorf("journal holds %d refusals for b, want 5", refusals)
	}

	before := asked.Load()
	b.Manager().Round(4)
	for i := 0; i < 2; i++ {
		if err := r.Ingest(tenantContribution(t, nil, "b.example", 4, 1, 40+i)); err != nil {
			t.Errorf("operator-created round 4 refused ingest: %v", err)
		}
		if err := r.Ingest(tenantContribution(t, nil, "b.example", 1, 1, 10+i)); err != nil {
			t.Errorf("live round 1 refused ingest: %v", err)
		}
	}
	want := slices.Collect(r.Records())
	if got := tape.replayInto(t, registry(nil)); !reflect.DeepEqual(got, want) {
		t.Errorf("replayed state differs:\n got %+v\nwant %+v", got, want)
	}
	if got := asked.Load(); got != before {
		t.Errorf("the predicate was asked %d more times outside ingest's round creation", got-before)
	}
}

func TestBudgetExhaustedWhenNothingEvictable(t *testing.T) {
	r := budgetRegistry(t, 2)
	a, _ := r.Tenant("a.example")
	for round := uint64(1); round <= 2; round++ {
		if err := r.Ingest(tenantContribution(t, nil, "a.example", round, 1, int(round))); err != nil {
			t.Fatal(err)
		}
		// Sealed rounds hold memory but are never evicted.
		if err := a.Manager().Seal(round); err != nil {
			t.Fatal(err)
		}
	}
	err := r.Ingest(tenantContribution(t, nil, "b.example", 1, 1, 0))
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	// Forget releases the budget; admission recovers.
	a.Manager().Forget(1)
	if err := r.Ingest(tenantContribution(t, nil, "b.example", 1, 1, 1)); err != nil {
		t.Fatalf("admission after Forget: %v", err)
	}
}

// TestBudgetOperatorCreationBypasses pins the documented operator bypass:
// explicit Round creation is charged but never blocked.
func TestBudgetOperatorCreationBypasses(t *testing.T) {
	r := budgetRegistry(t, 1)
	a, _ := r.Tenant("a.example")
	for round := uint64(1); round <= 3; round++ {
		a.Manager().Round(round)
	}
	if got := r.Budget().Live(); got != 3 {
		t.Fatalf("budget live = %d, want 3 (operator rounds charged)", got)
	}
}

// FuzzRouteContribution fuzzes the frame-level router: arbitrary bytes
// must never panic, never be accepted unless they fully verify for a
// registered tenant, and unroutable inputs must land in the registry's
// rejection counter (routing accounting stays exact under garbage).
func FuzzRouteContribution(f *testing.F) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		f.Fatal(err)
	}
	r := NewRegistry(8)
	for _, name := range []string{"alpha.example", "beta.example"} {
		if _, err := r.AddTenant(TenantConfig{Name: name, Verify: key.Public(), Dim: 2}); err != nil {
			f.Fatal(err)
		}
	}
	valid := tenantContribution(f, key, "alpha.example", 1, 2, 1)
	// Seed corpus: the routing-relevant shapes — a valid contribution, an
	// unknown tenant, a truncated name field, and a cross-tenant replay
	// (alpha's bytes respelled as beta).
	f.Add(valid)
	f.Add(tenantContribution(f, key, "ghost.example", 1, 2, 2))
	f.Add(valid[:3])
	f.Add([]byte{0x00, 0x00, 0xFF, 0xFF, 'x'})
	sc, err := glimmer.DecodeSignedContribution(valid)
	if err != nil {
		f.Fatal(err)
	}
	sc.ServiceName = "beta.example"
	f.Add(glimmer.EncodeSignedContribution(sc))

	f.Fuzz(func(t *testing.T, data []byte) {
		refusedBefore := r.Rejected()
		err := r.Ingest(data)
		if err == nil {
			// Accepted: the input must be a genuine, routable contribution
			// — decodable, named for a registered tenant, and verifying
			// under the tenant key.
			decoded, serr := glimmer.DecodeSignedContribution(data)
			if serr != nil {
				t.Fatalf("accepted undecodable input %x", data)
			}
			if _, ok := r.Tenant(decoded.ServiceName); !ok {
				t.Fatalf("accepted contribution for unregistered tenant %q", decoded.ServiceName)
			}
			return
		}
		if errors.Is(err, ErrUnknownTenant) || isRoutingError(data) {
			if r.Rejected() == refusedBefore && errors.Is(err, ErrUnknownTenant) {
				t.Fatal("unknown-tenant refusal not counted by the registry")
			}
		}
	})
}

// isRoutingError reports whether the input dies before reaching a tenant
// (its name field cannot be peeked).
func isRoutingError(data []byte) bool {
	_, err := glimmer.PeekContributionService(data)
	return err != nil
}

// TestRegistryIngestBatchErrorAlignment pins the error-slot alignment
// contract across mixed routable/unroutable batches.
func TestRegistryIngestBatchErrorAlignment(t *testing.T) {
	r, keys := twoTenantRegistry(t)
	alpha := tenantContribution(t, keys["alpha.example"], "alpha.example", 2, 4, 1)
	raws := [][]byte{
		[]byte("garbage-0"),
		tenantContribution(t, keys["beta.example"], "beta.example", 2, 2, 0),
		alpha,
		bytes.Repeat([]byte{0xFF}, 6),
		alpha, // byte-identical duplicate
	}
	accepted, errs := r.IngestBatch(raws)
	if accepted != 2 {
		t.Fatalf("accepted = %d, want 2", accepted)
	}
	if errs[0] == nil || errs[3] == nil {
		t.Fatal("garbage slots not refused")
	}
	if errs[1] != nil || errs[2] != nil {
		t.Fatalf("valid slots refused: %v / %v", errs[1], errs[2])
	}
	if !errors.Is(errs[4], ErrDuplicate) {
		t.Fatalf("duplicate slot err = %v, want ErrDuplicate", errs[4])
	}
}

// TestRegistryConcurrentMixedIngest hammers the router from many
// goroutines across tenants and checks the totals; run under -race in CI.
func TestRegistryConcurrentMixedIngest(t *testing.T) {
	r, keys := twoTenantRegistry(t)
	const lanes, perLane = 8, 24
	done := make(chan error, lanes)
	for l := 0; l < lanes; l++ {
		go func(l int) {
			var firstErr error
			for i := 0; i < perLane; i++ {
				name := "alpha.example"
				dim := 4
				if (l+i)%2 == 1 {
					name, dim = "beta.example", 2
				}
				raw := tenantContribution(t, keys[name], name, 3, dim, l*perLane+i)
				if err := r.Ingest(raw); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("lane %d item %d: %w", l, i, err)
				}
			}
			done <- firstErr
		}(l)
	}
	for l := 0; l < lanes; l++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, name := range []string{"alpha.example", "beta.example"} {
		tn, _ := r.Tenant(name)
		if p, ok := tn.Manager().Lookup(3); ok {
			total += p.Count()
		}
	}
	if total != lanes*perLane {
		t.Fatalf("total accepted = %d, want %d", total, lanes*perLane)
	}
}

// TestRegistryRecordsStreamTheExport: the stream Snapshot writes is the
// struct form's records, record for record — tenants with and without
// tickets; open, sealed and closed rounds; refusals at all three levels —
// and a consumer may stop it after any record.
func TestRegistryRecordsStreamTheExport(t *testing.T) {
	r := NewRegistry(0)
	owns := func(round uint64) bool { return round < 9 }
	for i, name := range []string{"b.example", "a.example", "c.example"} {
		cfg := TenantConfig{Name: name, Dim: 2, Owns: owns}
		if i < 2 {
			cfg.TicketPolicy = &TicketConfig{}
		}
		if _, err := r.AddTenant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, tn := range r.Tenants() {
		name, m := tn.Config().Name, tn.Manager()
		if m.cfg.tickets != nil {
			for id := uint64(1); id <= 2; id++ {
				m.cfg.tickets.install(id, xcrypto.SessionKey{byte(id)}, 1, 4, 1<<40)
			}
		}
		for round := uint64(1); round <= 3; round++ {
			for i := range 3 {
				if err := r.Ingest(tenantContribution(t, nil, name, round, 2, i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.Ingest(tenantContribution(t, nil, name, 1, 2, 0)); !errors.Is(err, ErrDuplicate) {
			t.Fatalf("duplicate: err = %v", err)
		}
		if err := r.Ingest(tenantContribution(t, nil, name, 9, 2, 0)); !errors.Is(err, ErrNotOwner) {
			t.Fatalf("round 9: err = %v", err)
		}
		if m.Seal(2) != nil || m.Seal(3) != nil || m.Close(3) == nil {
			t.Fatal("seal or close failed")
		}
	}
	if err := r.Ingest([]byte("unroutable")); err == nil {
		t.Fatal("the registry accepted unroutable bytes")
	}

	want := r.ExportState().Records()
	levels := map[RejectLevel]int{}
	for _, rec := range want {
		if rec.Kind == Rejected {
			levels[rec.Level] += rec.Count
		}
	}
	if len(levels) != 3 || levels[LevelRound] != 3 || levels[LevelManager] != 3 || levels[LevelRegistry] != 1 {
		t.Fatalf("refusals by level %v, want 3 round, 3 manager and 1 registry", levels)
	}
	if got := slices.Collect(r.Records()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Records streams\n%+v\nthe struct form holds\n%+v", got, want)
	}
	for stop := range want {
		seen := 0
		for rec := range r.Records() {
			if !reflect.DeepEqual(rec, want[seen]) {
				t.Fatalf("record %d = %+v, want %+v", seen, rec, want[seen])
			}
			if seen == stop {
				break
			}
			seen++
		}
		if seen != stop {
			t.Fatalf("stream ended after %d records, before record %d", seen, stop)
		}
	}
}
