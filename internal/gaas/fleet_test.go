package gaas

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// fleetTenant is the shared tenant identity a fleet serves: one
// contribution-signing key, one vetted measurement, N independent node
// managers.
type fleetTenant struct {
	key  *xcrypto.SigningKey
	meas tee.Measurement
}

func newFleetTenant(t *testing.T) *fleetTenant {
	t.Helper()
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	return &fleetTenant{key: key, meas: tee.Measurement{1, 2, 3}}
}

// node hosts the tenant as the only one of a fresh registry, ticketed and
// holding the given tickets: the ingest one fleet node serves, and the
// tenant's rounds there.
func (ft *fleetTenant) node(t *testing.T, dim int, tickets ...service.TicketState) (*service.Registry, *service.RoundManager) {
	t.Helper()
	reg := service.NewRegistry(0)
	hosted, err := reg.AddTenant(service.TenantConfig{
		Name: "iot.example", Verify: ft.key.Public(), Dim: dim,
		Vetted: []tee.Measurement{ft.meas}, Workers: 1, Shards: 2,
		TicketPolicy: &service.TicketConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if err := reg.Apply(service.Record{Kind: service.TicketGranted, Tenant: "iot.example", Ticket: tk}); err != nil {
			t.Fatal(err)
		}
	}
	return reg, hosted.Manager()
}

func (ft *fleetTenant) contribution(t *testing.T, round uint64, dim int, rng *rand.Rand) []byte {
	t.Helper()
	v := fixed.NewVector(dim)
	for i := range v {
		v[i] = fixed.Ring(rng.Uint64())
	}
	sc := glimmer.SignedContribution{
		ServiceName: "iot.example", Round: round, Measurement: ft.meas, Blinded: v,
	}
	sig, err := ft.key.Sign(sc.SignedBytes())
	if err != nil {
		t.Fatal(err)
	}
	sc.Signature = sig
	return glimmer.EncodeSignedContribution(sc)
}

// fleetServer spins one node: a server whose mux registers both client
// ingest and the fleet plane.
func fleetServer(t *testing.T, ing Ingestor, merger PartialMerger) (*Server, string) {
	t.Helper()
	mux := NewServeMux()
	if ing != nil {
		mux.HandleIngest(ing)
	}
	mux.HandleFleet(ing, merger)
	return edgeServer(t, ServerConfig{Mux: mux})
}

// TestFleetForwardAndMerge exercises the two fleet commands end to end:
// a peer forwards a batch over fleet-forward, the node exports its
// partial seal, the coordinator merges it over fleet-merge, and a
// replayed seal is refused across the wire without disturbing the merge.
func TestFleetForwardAndMerge(t *testing.T) {
	const dim, round = 3, uint64(7)
	ft := newFleetTenant(t)
	reg, rounds := ft.node(t, dim)
	nodeSrv, nodeAddr := fleetServer(t, reg, nil)

	hub := &service.MergeHub{AllowTOFU: true}
	coordSrv, coordAddr := fleetServer(t, nil, hub)

	rng := rand.New(rand.NewSource(3))
	raws := make([][]byte, 6)
	for i := range raws {
		raws[i] = ft.contribution(t, round, dim, rng)
	}
	peer, err := DialContext(context.Background(), nodeAddr, DialConfig{NoSession: true})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	accepted, rejected, err := peer.submitBatchCmd(cmdFleetForward, append(append([][]byte(nil), raws...), raws[0]))
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 6 || rejected != 1 {
		t.Fatalf("forward tallies accepted=%d rejected=%d", accepted, rejected)
	}
	if fs := nodeSrv.FleetStats(); fs.ForwardedBatches != 1 {
		t.Fatalf("node fleet stats = %+v", fs)
	}

	nodeKey, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	seal, err := rounds.ExportPartialSeal(round, service.NodeSeal{
		NodeID: 1, ShardCount: 1, Measurement: tee.Measurement{0x51}, Key: nodeKey,
	})
	if err != nil {
		t.Fatal(err)
	}

	coord, err := DialContext(context.Background(), coordAddr, DialConfig{NoSession: true})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	res, err := coord.MergePartialSeal(seal)
	if err != nil {
		t.Fatal(err)
	}
	nodeSrv.NotePartialSent()
	if res.Merged != 1 || res.Expect != 1 || res.Count != 6 || res.Rejected != 1 {
		t.Fatalf("merge result = %+v", res)
	}
	m, ok := hub.Lookup("iot.example", round)
	if !ok || !m.Complete() {
		t.Fatal("coordinator merge not complete")
	}
	sum := m.Sum()
	want := rounds.Round(round).Sum()
	for i := range want {
		if sum[i] != want[i] {
			t.Fatalf("merged sum lane %d = %d, node sum %d", i, sum[i], want[i])
		}
	}

	// Replay across the wire: refused as an error frame, connection and
	// merge both undisturbed.
	if _, err := coord.MergePartialSeal(seal); err == nil {
		t.Fatal("replayed seal accepted over the wire")
	}
	if res := m.Result(); res.Merged != 1 || res.Refused != 1 {
		t.Fatalf("after replay: %+v", res)
	}
	if fs := coordSrv.FleetStats(); fs.PartialsReceived != 2 || fs.PartialsRefused != 1 {
		t.Fatalf("coordinator fleet stats = %+v", fs)
	}
	if fs := nodeSrv.FleetStats(); fs.PartialsSent != 1 {
		t.Fatalf("node fleet stats = %+v", fs)
	}
	// The refused replay must not have poisoned the connection.
	if _, err := coord.MergePartialSeal(seal); err == nil {
		t.Fatal("second replay accepted")
	}
}

// TestFleetClientRouting drives the ring-routing client against three
// live nodes: every contribution lands on its ring owner, and tallies add
// up.
func TestFleetClientRouting(t *testing.T) {
	const dim = 3
	ft := newFleetTenant(t)
	managers := map[uint32]*service.RoundManager{}
	nodes := make([]FleetNode, 0, 3)
	for id := uint32(1); id <= 3; id++ {
		reg, m := ft.node(t, dim)
		managers[id] = m
		_, addr := fleetServer(t, reg, nil)
		nodes = append(nodes, FleetNode{ID: id, Addr: addr})
	}
	fc, err := DialFleet(context.Background(), FleetConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	rng := rand.New(rand.NewSource(17))
	var raws [][]byte
	perRound := map[uint64]int{}
	for round := uint64(1); round <= 12; round++ {
		for i := 0; i < 4; i++ {
			raws = append(raws, ft.contribution(t, round, dim, rng))
			perRound[round]++
		}
	}
	accepted, rejected, err := fc.SubmitBatch(raws)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(raws) || rejected != 0 {
		t.Fatalf("fleet tallies accepted=%d rejected=%d of %d", accepted, rejected, len(raws))
	}
	// Every round must live wholly on its ring owner.
	for round, want := range perRound {
		owner := fc.Ring().Owner([]byte("iot.example"), round)
		for id, m := range managers {
			p, ok := m.Lookup(round)
			got := 0
			if ok {
				got = p.Count()
			}
			switch {
			case id == owner && got != want:
				t.Fatalf("round %d: owner %d holds %d/%d", round, id, got, want)
			case id != owner && got != 0:
				t.Fatalf("round %d: non-owner %d holds %d contributions", round, id, got)
			}
		}
	}

	// Unroutable frames count rejected without a round trip.
	if _, rej, err := fc.SubmitBatch([][]byte{{0x00}}); err != nil || rej != 1 {
		t.Fatalf("unroutable frame: rej=%d err=%v", rej, err)
	}
}

// TestFleetClientGroupsReused: the per-owner groups are scratch. After a
// SubmitBatch — one that succeeded, and one a dead connection aborted
// midway — every group is truncated in place (its array kept for the next
// frame) and holds no view into the caller's frame.
func TestFleetClientGroupsReused(t *testing.T) {
	const dim = 3
	ft := newFleetTenant(t)
	nodes := make([]FleetNode, 0, 3)
	for id := uint32(1); id <= 3; id++ {
		reg, _ := ft.node(t, dim)
		_, addr := fleetServer(t, reg, nil)
		nodes = append(nodes, FleetNode{ID: id, Addr: addr})
	}
	fc, err := DialFleet(context.Background(), FleetConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	rng := rand.New(rand.NewSource(23))
	frame := func() [][]byte {
		var raws [][]byte
		for round := uint64(1); round <= 12; round++ {
			raws = append(raws, ft.contribution(t, round, dim, rng))
		}
		return raws
	}
	check := func(when string) {
		t.Helper()
		if len(fc.groups) != len(nodes) {
			t.Fatalf("%s: %d groups for %d nodes", when, len(fc.groups), len(nodes))
		}
		for node, group := range fc.groups {
			if cap(group) == 0 || len(group) != 0 {
				t.Errorf("%s: node %d group has len %d cap %d, want an empty group that kept its array",
					when, node, len(group), cap(group))
			}
			for i, raw := range group[:cap(group)] {
				if raw != nil {
					t.Errorf("%s: node %d group still holds a view at %d", when, node, i)
				}
			}
		}
	}
	if acc, rej, err := fc.SubmitBatch(frame()); err != nil || acc != 12 || rej != 0 {
		t.Fatalf("submit tallied (%d, %d), err %v", acc, rej, err)
	}
	check("after a successful submit")
	for _, c := range fc.conns {
		_ = c.Close()
	}
	if _, _, err := fc.SubmitBatch(frame()); err == nil {
		t.Fatal("submit over closed connections succeeded")
	}
	check("after a failed submit")
}

// errTap records the error slots an Ingestor produced for its last frame;
// the wire reply carries tallies only.
type errTap struct {
	Ingestor
	errs []error
}

func (e *errTap) IngestBatch(raws [][]byte) (int, []error) {
	accepted, errs := e.Ingestor.IngestBatch(raws)
	e.errs = append(e.errs[:0], errs...)
	return accepted, errs
}

// TestFleetTicketHonouredOnlyOnGrantingNode pins how tickets and the ring
// (do not) compose: ticket tables are per node, routing is by (service,
// round). A ticketed contribution whose round lives on a node other than
// the one that granted the ticket is refused with ErrUnknownTicket, booked
// exactly once — by the manager while the round is new to that node, by
// the round once it is live there — and moves no sum.
func TestFleetTicketHonouredOnlyOnGrantingNode(t *testing.T) {
	const dim = 3
	ft := newFleetTenant(t)
	const granting, other = uint32(1), uint32(2)
	tk := xcrypto.SessionKey{0xA7}
	managers := map[uint32]*service.RoundManager{}
	taps := map[uint32]*errTap{}
	var nodes []FleetNode
	for _, id := range []uint32{granting, other} {
		var granted []service.TicketState
		if id == granting {
			granted = append(granted, service.TicketState{ID: 7, Key: tk, RoundFirst: 1, RoundLast: 1 << 32, ExpiresUnix: 1 << 62})
		}
		reg, m := ft.node(t, dim, granted...)
		managers[id], taps[id] = m, &errTap{Ingestor: reg}
		_, addr := fleetServer(t, taps[id], nil)
		nodes = append(nodes, FleetNode{ID: id, Addr: addr})
	}
	fc, err := DialFleet(context.Background(), FleetConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	roundOn := func(node uint32) uint64 {
		for round := uint64(1); ; round++ {
			if fc.Ring().Owner([]byte("iot.example"), round) == node {
				return round
			}
		}
	}
	ticketed := func(round uint64, salt uint64) []byte {
		tc := glimmer.TicketedContribution{
			ServiceName: "iot.example", Round: round, TicketID: 7,
			Blinded: fixed.Vector{fixed.Ring(salt), 2, 3}, Confidence: 1,
		}
		return glimmer.SealTicketedContribution(tc, xcrypto.NewSessionAEAD(&tk))
	}
	submit := func(raw []byte, wantAccepted int) {
		t.Helper()
		acc, rej, err := fc.SubmitBatch([][]byte{raw})
		if err != nil || acc != wantAccepted || rej != 1-wantAccepted {
			t.Fatalf("submit tallied (%d, %d), err %v; want (%d, %d)", acc, rej, err, wantAccepted, 1-wantAccepted)
		}
	}
	stray, rng := roundOn(other), rand.New(rand.NewSource(5))
	m := managers[other]

	// The round is new to the non-granting node: refused at the manager,
	// and no round comes into existence for it.
	submit(ticketed(stray, 1), 0)
	if err := taps[other].errs[0]; !errors.Is(err, service.ErrUnknownTicket) {
		t.Fatalf("mis-routed ticketed contribution refused with %v, want ErrUnknownTicket", err)
	}
	if _, live := m.Lookup(stray); live || m.Rejected() != 1 {
		t.Fatalf("round live = %v, manager refusals = %d; want no round and exactly 1", live, m.Rejected())
	}

	// The round is live there (a signed contribution opened it): refused by
	// the round, the manager's tally and the sum unmoved.
	submit(ft.contribution(t, stray, dim, rng), 1)
	p, _ := m.Lookup(stray)
	before := p.Sum().Digest()
	submit(ticketed(stray, 2), 0)
	if err := taps[other].errs[0]; !errors.Is(err, service.ErrUnknownTicket) {
		t.Fatalf("mis-routed ticketed contribution refused with %v, want ErrUnknownTicket", err)
	}
	if m.Rejected() != 1 || p.Rejected() != 1 {
		t.Fatalf("refusals manager=%d round=%d, want 1 and 1", m.Rejected(), p.Rejected())
	}
	if p.Count() != 1 || p.Sum().Digest() != before {
		t.Fatalf("refused contribution moved the round: count %d", p.Count())
	}

	// The same ticket on a round the granting node owns is honoured, and
	// that node booked nothing throughout.
	home := roundOn(granting)
	submit(ticketed(home, 3), 1)
	if g := managers[granting]; g.Rejected() != 0 || g.Round(home).Rejected() != 0 || g.Round(home).Count() != 1 {
		t.Fatalf("granting node: manager refusals %d, round (%d accepted, %d refused); want 0, (1, 0)",
			g.Rejected(), g.Round(home).Count(), g.Round(home).Rejected())
	}
}
