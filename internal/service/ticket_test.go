package service

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/race"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// testTicket is the client half of a granted ticket: what an enclave would
// hold after ticket-install, reconstructed here from the grant exchange.
type testTicket struct {
	id          uint64
	key         xcrypto.SessionKey
	first, last uint64
}

// grantTestTicket runs the full client side of the grant exchange against
// granter (a RoundManager or Registry): fresh DH value, signed
// request, decode the grant, derive the session key.
func grantTestTicket(t *testing.T, granter interface {
	GrantTicket([]byte) ([]byte, error)
}, serviceName string, signKey *xcrypto.SigningKey, meas tee.Measurement, first, last uint64) testTicket {
	t.Helper()
	dh, err := xcrypto.NewDHKey()
	if err != nil {
		t.Fatal(err)
	}
	req := wire.TicketRequest{
		Service:     serviceName,
		DevicePub:   dh.PublicBytes(),
		Measurement: meas[:],
		RoundFirst:  first,
		RoundLast:   last,
	}
	if signKey != nil {
		sig, err := signKey.Sign(req.SignedBytes())
		if err != nil {
			t.Fatal(err)
		}
		req.Signature = sig
	}
	grantRaw, err := granter.GrantTicket(wire.EncodeTicketRequest(req))
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	grant, err := wire.DecodeTicketGrant(grantRaw)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := dh.Shared(grant.ServerPub)
	if err != nil {
		t.Fatal(err)
	}
	return testTicket{
		id:    grant.ID,
		key:   xcrypto.DeriveTicketKey(shared, serviceName, grant.ID),
		first: grant.RoundFirst,
		last:  grant.RoundLast,
	}
}

// ticketedRaw seals one MAC'd contribution under the ticket.
func ticketedRaw(serviceName string, round uint64, dim, salt int, tk testTicket) []byte {
	tc := glimmer.TicketedContribution{
		ServiceName: serviceName,
		Round:       round,
		TicketID:    tk.id,
		Blinded:     make(fixed.Vector, dim),
		Confidence:  1,
	}
	for j := range tc.Blinded {
		tc.Blinded[j] = fixed.Ring(uint64(salt)*1000003 + round*31 + uint64(j))
	}
	return glimmer.SealTicketedContribution(tc, &tk.key)
}

func newTicketedManager(t *testing.T, key *xcrypto.SigningKey, dim int, tcfg TicketConfig) *RoundManager {
	t.Helper()
	var verify *xcrypto.VerifyKey
	if key != nil {
		verify = key.Public()
	}
	m := NewRoundManager(PipelineConfig{
		ServiceName: "tickets.example",
		Verify:      verify,
		Dim:         dim,
		Tickets:     NewTicketTable(tcfg),
	})
	return m
}

// TestTicketGrantAndIngest is the end-to-end happy path: one signed
// grant, then a round of MAC'd contributions — with a signed
// straggler in the same round proving the fallback path coexists — summing
// exactly.
func TestTicketGrantAndIngest(t *testing.T) {
	const dim = 8
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	m := newTicketedManager(t, key, dim, TicketConfig{})
	meas := tee.Measurement{7}
	m.Vet(meas)

	tk := grantTestTicket(t, m, "tickets.example", key, meas, 1, 16)
	if tk.first != 1 || tk.last != 16 {
		t.Fatalf("granted window [%d, %d], want [1, 16]", tk.first, tk.last)
	}

	want := fixed.NewVector(dim)
	for i := 0; i < 10; i++ {
		raw := ticketedRaw("tickets.example", 3, dim, i, tk)
		tc, err := glimmer.DecodeTicketedContribution(raw)
		if err != nil {
			t.Fatal(err)
		}
		want.AddInPlace(tc.Blinded)
		if err := m.Ingest(raw); err != nil {
			t.Fatalf("ticketed contribution %d refused: %v", i, err)
		}
	}
	// The signed fallback still works in the same round.
	sc := glimmer.SignedContribution{
		ServiceName: "tickets.example",
		Round:       3,
		Measurement: meas,
		Blinded:     make(fixed.Vector, dim),
		Confidence:  1,
	}
	for j := range sc.Blinded {
		sc.Blinded[j] = fixed.Ring(uint64(j) + 999)
	}
	sig, err := key.Sign(sc.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	sc.Signature = sig
	want.AddInPlace(sc.Blinded)
	if err := m.Ingest(glimmer.EncodeSignedContribution(sc)); err != nil {
		t.Fatalf("signed fallback refused: %v", err)
	}

	p, ok := m.Lookup(3)
	if !ok {
		t.Fatal("round 3 not created")
	}
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Count() != 11 {
		t.Fatalf("count = %d, want 11", p.Count())
	}
	got := p.Sum()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestTicketedRefusals pins the fast path's entire refusal surface.
func TestTicketedRefusals(t *testing.T) {
	const dim = 4
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	now := int64(1_700_000_000)
	clock := func() int64 { return now }
	m := newTicketedManager(t, key, dim, TicketConfig{TTL: 100, MaxWindow: 8, Now: clock})
	meas := tee.Measurement{7}
	m.Vet(meas)
	tk := grantTestTicket(t, m, "tickets.example", key, meas, 1, 100)
	if tk.last != 1+8 {
		t.Fatalf("window not clamped: last = %d, want 9", tk.last)
	}

	good := ticketedRaw("tickets.example", 2, dim, 1, tk)
	if err := m.Ingest(good); err != nil {
		t.Fatalf("good ticketed contribution refused: %v", err)
	}

	// Forged MAC: flip one tag byte.
	forged := append([]byte(nil), ticketedRaw("tickets.example", 2, dim, 2, tk)...)
	forged[len(forged)-1] ^= 0x01
	if err := m.Ingest(forged); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("forged MAC err = %v, want ErrBadMAC", err)
	}

	// Unknown ticket: valid structure, an ID the table never granted. The
	// MAC is sealed under a random key, so even the right key check would
	// fail — but the table lookup must refuse first.
	ghost := testTicket{id: tk.id ^ 0xFFFF, key: xcrypto.SessionKey{9}}
	if err := m.Ingest(ticketedRaw("tickets.example", 2, dim, 3, ghost)); !errors.Is(err, ErrUnknownTicket) {
		t.Fatalf("unknown ticket err = %v, want ErrUnknownTicket", err)
	}

	// Round outside the granted window.
	if err := m.Ingest(ticketedRaw("tickets.example", 50, dim, 4, tk)); !errors.Is(err, ErrTicketWindow) {
		t.Fatalf("out-of-window err = %v, want ErrTicketWindow", err)
	}

	// Duplicate of an accepted ticketed contribution.
	if err := m.Ingest(good); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v, want ErrDuplicate", err)
	}

	// Wrong dimension.
	if err := m.Ingest(ticketedRaw("tickets.example", 2, dim+1, 5, tk)); !errors.Is(err, ErrWrongDim) {
		t.Fatalf("wrong-dim err = %v, want ErrWrongDim", err)
	}

	// Wrong service name: refused before any table access.
	if err := m.Ingest(ticketedRaw("other.example", 2, dim, 6, tk)); !errors.Is(err, ErrWrongService) {
		t.Fatalf("wrong-service err = %v, want ErrWrongService", err)
	}

	// Expired: advance the clock past the TTL; renewal re-grants.
	now += 101
	if err := m.Ingest(ticketedRaw("tickets.example", 2, dim, 7, tk)); !errors.Is(err, ErrTicketExpired) {
		t.Fatalf("expired err = %v, want ErrTicketExpired", err)
	}
	renewed := grantTestTicket(t, m, "tickets.example", key, meas, 1, 8)
	if err := m.Ingest(ticketedRaw("tickets.example", 2, dim, 8, renewed)); err != nil {
		t.Fatalf("renewed ticket refused: %v", err)
	}
}

// TestTicketGrantRefusals pins the control plane: bad signature, unvetted
// measurement, wrong service, inverted window, disabled tickets.
func TestTicketGrantRefusals(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	wrongKey, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	m := newTicketedManager(t, key, 4, TicketConfig{})
	meas := tee.Measurement{7}
	m.Vet(meas)

	makeReq := func(mutate func(*wire.TicketRequest), signWith *xcrypto.SigningKey) []byte {
		dh, err := xcrypto.NewDHKey()
		if err != nil {
			t.Fatal(err)
		}
		req := wire.TicketRequest{
			Service:     "tickets.example",
			DevicePub:   dh.PublicBytes(),
			Measurement: meas[:],
			RoundFirst:  1,
			RoundLast:   4,
		}
		if mutate != nil {
			mutate(&req)
		}
		sig, err := signWith.Sign(req.SignedBytes())
		if err != nil {
			t.Fatal(err)
		}
		req.Signature = sig
		return wire.EncodeTicketRequest(req)
	}

	if _, err := m.GrantTicket(makeReq(nil, wrongKey)); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("wrong-key grant err = %v, want ErrBadSignature", err)
	}
	if _, err := m.GrantTicket(makeReq(func(r *wire.TicketRequest) {
		r.Measurement = make([]byte, 32)
	}, key)); !errors.Is(err, ErrUnknownGlimmer) {
		t.Fatalf("unvetted grant err = %v, want ErrUnknownGlimmer", err)
	}
	if _, err := m.GrantTicket(makeReq(func(r *wire.TicketRequest) {
		r.Service = "other.example"
	}, key)); !errors.Is(err, ErrWrongService) {
		t.Fatalf("wrong-service grant err = %v, want ErrWrongService", err)
	}
	if _, err := m.GrantTicket(makeReq(func(r *wire.TicketRequest) {
		r.RoundFirst, r.RoundLast = 9, 3
	}, key)); err == nil {
		t.Fatal("inverted window granted")
	}
	if _, err := m.GrantTicket([]byte{0xFF, 0xFF}); err == nil {
		t.Fatal("undecodable request granted")
	}

	// A manager without a table refuses grants and ticketed traffic alike.
	bare := NewRoundManager(PipelineConfig{ServiceName: "tickets.example", Verify: key.Public(), Dim: 4})
	bare.Vet(meas)
	if _, err := bare.GrantTicket(makeReq(nil, key)); !errors.Is(err, ErrTicketsDisabled) {
		t.Fatalf("disabled grant err = %v, want ErrTicketsDisabled", err)
	}
	tk := grantTestTicket(t, m, "tickets.example", key, meas, 1, 4)
	if err := bare.Ingest(ticketedRaw("tickets.example", 2, 4, 0, tk)); !errors.Is(err, ErrUnknownTicket) {
		t.Fatalf("ticketless-tenant ingest err = %v, want ErrUnknownTicket", err)
	}
}

// TestTicketTableBoundsAndEviction: the table never exceeds MaxTickets;
// expired entries are dropped first, then the soonest-expiring live one.
func TestTicketTableBoundsAndEviction(t *testing.T) {
	now := int64(1000)
	tbl := NewTicketTable(TicketConfig{MaxTickets: 3, TTL: 50, Now: func() int64 { return now }})
	tbl.Install(1, xcrypto.SessionKey{1}, 0, 10, now+10)
	tbl.Install(2, xcrypto.SessionKey{2}, 0, 10, now+20)
	tbl.Install(3, xcrypto.SessionKey{3}, 0, 10, now+30)
	if tbl.Len() != 3 {
		t.Fatalf("len = %d, want 3", tbl.Len())
	}
	// At the bound with nothing expired: ticket 1 (soonest expiry) loses.
	tbl.Install(4, xcrypto.SessionKey{4}, 0, 10, now+40)
	if tbl.Len() != 3 {
		t.Fatalf("len = %d, want 3 after eviction", tbl.Len())
	}
	if _, err := tbl.check(1, 5); !errors.Is(err, ErrUnknownTicket) {
		t.Fatalf("soonest-expiring ticket not evicted: %v", err)
	}
	if _, err := tbl.check(2, 5); err != nil {
		t.Fatalf("ticket 2 lost: %v", err)
	}
	// Expire 2 and 3; the next insert reclaims both slots instead of
	// evicting the live ticket 4.
	now += 35
	tbl.Install(5, xcrypto.SessionKey{5}, 0, 10, now+40)
	if _, err := tbl.check(4, 5); err != nil {
		t.Fatalf("live ticket 4 evicted while expired entries existed: %v", err)
	}
	if _, err := tbl.check(5, 5); err != nil {
		t.Fatalf("ticket 5 lost: %v", err)
	}
	if tbl.Len() > 3 {
		t.Fatalf("len = %d exceeds bound", tbl.Len())
	}
}

// TestRegistryTicketRouting: grants route by the service the request
// names; cross-tenant ticketed traffic is refused without moving sums.
func TestRegistryTicketRouting(t *testing.T) {
	const dim = 4
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0)
	for _, name := range []string{"a.example", "b.example"} {
		if _, err := reg.AddTenant(TenantConfig{
			Name:         name,
			Verify:       key.Public(),
			Dim:          dim,
			TicketPolicy: &TicketConfig{},
		}); err != nil {
			t.Fatal(err)
		}
	}
	meas := tee.Measurement{7}
	ta, _ := reg.Tenant("a.example")
	tb, _ := reg.Tenant("b.example")
	ta.Manager().Vet(meas)
	tb.Manager().Vet(meas)

	tk := grantTestTicket(t, reg, "a.example", key, meas, 1, 8)
	raw := ticketedRaw("a.example", 2, dim, 1, tk)
	if err := reg.Ingest(raw); err != nil {
		t.Fatalf("routed ticketed contribution refused: %v", err)
	}

	// The same ticket respelled for tenant b: routed there, refused there
	// (b's table never granted this ID), and b's state does not move.
	cross := ticketedRaw("b.example", 2, dim, 2, tk)
	if err := reg.Ingest(cross); err == nil {
		t.Fatal("cross-tenant ticketed contribution accepted")
	}
	if rounds := tb.Manager().Rounds(); len(rounds) != 0 {
		t.Fatalf("cross-tenant probe created rounds %v on the victim", rounds)
	}

	// Grant for a tenant the registry does not host.
	dh, err := xcrypto.NewDHKey()
	if err != nil {
		t.Fatal(err)
	}
	req := wire.TicketRequest{
		Service:     "ghost.invalid",
		DevicePub:   dh.PublicBytes(),
		Measurement: meas[:],
		RoundFirst:  1,
		RoundLast:   2,
	}
	sig, err := key.Sign(req.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	req.Signature = sig
	if _, err := reg.GrantTicket(wire.EncodeTicketRequest(req)); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("ghost grant err = %v, want ErrUnknownTenant", err)
	}
}

// TestTicketedRoundCreationGated: a ticketed contribution can bring a new
// round into existence only when its MAC verifies — unauthenticated bytes
// still cannot allocate rounds on the fast path.
func TestTicketedRoundCreationGated(t *testing.T) {
	const dim = 4
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	m := newTicketedManager(t, key, dim, TicketConfig{})
	meas := tee.Measurement{7}
	m.Vet(meas)
	tk := grantTestTicket(t, m, "tickets.example", key, meas, 1, 16)

	forged := append([]byte(nil), ticketedRaw("tickets.example", 9, dim, 1, tk)...)
	forged[len(forged)-1] ^= 0x01
	if err := m.Ingest(forged); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("forged err = %v, want ErrBadMAC", err)
	}
	if _, ok := m.Lookup(9); ok {
		t.Fatal("forged ticketed contribution created a round")
	}
	if err := m.Ingest(ticketedRaw("tickets.example", 9, dim, 2, tk)); err != nil {
		t.Fatalf("genuine ticketed contribution refused: %v", err)
	}
	if _, ok := m.Lookup(9); !ok {
		t.Fatal("genuine ticketed contribution did not create its round")
	}
	if got := m.Rejected(); got != 1 {
		t.Fatalf("manager rejected = %d, want 1", got)
	}
}

// TestPooledMACScratchNotAliasedAcrossConcurrentAddBatch is the -race
// guard for the pooled HMAC scratch: many goroutines push overlapping
// ticketed batches through a pooled-worker pipeline across all shards, and
// the sealed aggregate must equal the exact element-wise sum of every
// distinct contribution. A MACState or ticket scratch recycled while
// another worker still uses it would corrupt a MAC check or the sum (and
// trip the race detector).
func TestPooledMACScratchNotAliasedAcrossConcurrentAddBatch(t *testing.T) {
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
	m := newTicketedManager(t, key, dim, TicketConfig{})
	meas := tee.Measurement{7}
	m.Vet(meas)
	// One ticket per caller: concurrent MAC checks resolve different keys.
	tickets := make([]testTicket, callers)
	for c := range tickets {
		tickets[c] = grantTestTicket(t, m, "tickets.example", key, meas, 1, 16)
	}
	all := make([][]byte, 0, callers*perCaller)
	want := fixed.NewVector(dim)
	for c := 0; c < callers; c++ {
		for i := 0; i < perCaller; i++ {
			raw := ticketedRaw("tickets.example", round, dim, c*perCaller+i, tickets[c])
			tc, err := glimmer.DecodeTicketedContribution(raw)
			if err != nil {
				t.Fatal(err)
			}
			want.AddInPlace(tc.Blinded)
			all = append(all, raw)
		}
	}
	p := m.Round(round)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		batch := all[c*perCaller : (c+1)*perCaller]
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs := m.IngestBatch(batch)
			for _, err := range errs {
				if err != nil {
					t.Errorf("IngestBatch: %v", err)
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
			t.Fatalf("sum[%d] = %v, want %v (MAC scratch aliasing?)", i, got[i], want[i])
		}
	}
	// The fast path must not have weakened forgery resistance under
	// concurrency: a flipped MAC still bounces.
	forged := append([]byte(nil), bytes.Clone(all[0])...)
	forged[len(forged)-1] ^= 0x01
	if err := m.Ingest(forged); !errors.Is(err, ErrBadMAC) && !errors.Is(err, ErrRoundSealed) {
		t.Fatalf("forged err = %v, want ErrBadMAC or ErrRoundSealed", err)
	}
}

// TestTicketedIngestAllocFree pins the tentpole contract end to end on the
// service layer: with a warmed pipeline, steady-state ticketed ingest —
// decode, table check, session MAC, dedup insert, accumulate — performs
// zero heap allocations per contribution.
func TestTicketedIngestAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const runs = 300
	const dim = 64
	tbl := NewTicketTable(TicketConfig{})
	tk := testTicket{id: 42, key: xcrypto.SessionKey{1, 2, 3}, first: 1, last: 16}
	tbl.Install(tk.id, tk.key, tk.first, tk.last, 1<<62)
	raws := make([][]byte, runs+50)
	for i := range raws {
		raws[i] = ticketedRaw("alloc.example", 7, dim, i, tk)
	}
	p := NewPipeline(PipelineConfig{
		ServiceName:    "alloc.example",
		Dim:            dim,
		Round:          7,
		Tickets:        tbl,
		Workers:        1,
		Shards:         1,
		ExpectedCohort: len(raws),
	})
	if err := p.Add(raws[0]); err != nil {
		t.Fatal(err)
	}
	i := 0
	if got := testing.AllocsPerRun(runs, func() {
		i++
		if err := p.Add(raws[i]); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("ticketed ingest: %.1f allocs/op, want 0", got)
	}
	if p.Count() != i+1 {
		t.Fatalf("count = %d, want %d", p.Count(), i+1)
	}

	// The same contract one verb up: routed by the manager, the frame of one
	// still allocates nothing (Registry.Ingest is TestJournaledIngestAllocFree's).
	m := NewRoundManager(PipelineConfig{
		ServiceName: "alloc.example", Dim: dim, Tickets: tbl,
		Workers: 1, Shards: 1, ExpectedCohort: len(raws),
	})
	if err := m.Ingest(raws[0]); err != nil {
		t.Fatal(err)
	}
	i = 0
	if got := testing.AllocsPerRun(runs, func() {
		i++
		if err := m.Ingest(raws[i]); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("RoundManager.Ingest, ticketed: %.1f allocs/op, want 0", got)
	}
	if got := m.Round(7).Count(); got != i+1 {
		t.Fatalf("manager round count = %d, want %d", got, i+1)
	}
}

// TestTicketCheckAllocFree pins the table lookup alone: with the default
// wall clock (withDefaults caches a concrete func at construction — the
// nil-vs-injected choice must not be resolved per check), check performs
// zero allocations.
func TestTicketCheckAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	tbl := NewTicketTable(TicketConfig{}) // nil Now: the cached time.Now path
	tbl.Install(42, xcrypto.SessionKey{1, 2, 3}, 1, 16, 1<<62)
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := tbl.check(42, 7); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("ticket check: %.1f allocs/op, want 0", got)
	}
}

// TestTicketEvictionTieBreaksOldestGrantFirst: expiry has one-second
// resolution, so a table filled within one second ties on it throughout.
// The victim must then be the oldest grant — never, as a tie-break on the
// (random) ticket ID allowed, one granted a moment ago and about to be
// used — and the order must survive a restore.
func TestTicketEvictionTieBreaksOldestGrantFirst(t *testing.T) {
	const maxTickets = 8
	cfg := TicketConfig{MaxTickets: maxTickets, TTL: 50, Now: func() int64 { return 1000 }}
	// IDs descend, so the lowest ID is always the newest grant.
	id := func(i int) uint64 { return uint64(1000 - i) }
	fill := func(tbl *TicketTable) {
		for i := 0; i < maxTickets; i++ {
			tbl.Install(id(i), xcrypto.SessionKey{byte(i)}, 0, 10, 1050)
		}
	}
	check := func(tbl *TicketTable, what string) {
		t.Helper()
		tbl.Install(id(maxTickets), xcrypto.SessionKey{0xFF}, 0, 10, 1050)
		if _, err := tbl.check(id(0), 5); !errors.Is(err, ErrUnknownTicket) {
			t.Errorf("%s: the first grant survived the eviction: %v", what, err)
		}
		for i := 1; i <= maxTickets; i++ {
			if _, err := tbl.check(id(i), 5); err != nil {
				t.Errorf("%s: grant %d of the newest %d was evicted: %v", what, i, maxTickets, err)
			}
		}
	}
	live := NewTicketTable(cfg)
	fill(live)
	check(live, "live table")

	// A restore assigns sequence in replay order: the journal's order.
	restored := NewTicketTable(cfg)
	for i := 0; i < maxTickets; i++ {
		restored.restoreTicket(TicketState{ID: id(i), Key: xcrypto.SessionKey{byte(i)}, RoundLast: 10, ExpiresUnix: 1050})
	}
	check(restored, "restored table")
}
