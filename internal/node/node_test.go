package node

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"glimmers/internal/durable"
	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/testbed"
	"glimmers/internal/wire"
)

const (
	testService = "node.example"
	testDim     = 4
)

// world is what outlives a node life: the attestation root, the platform,
// and the tenant's service (keys and predicate).
type world struct{ *testbed.Tenant }

func newWorld(t *testing.T) *world {
	t.Helper()
	tenant, err := testbed.NewTenant(testbed.TenantSpec{Name: testService, Dim: testDim, Hosting: service.TenantConfig{
		TicketPolicy: &service.TicketConfig{},
		Workers:      2,
		EvictAtCap:   DefaultEvictAtCap,
		RoundWindow:  DefaultRoundWindow,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return &world{tenant}
}

// start runs one node life over dir on a fresh loopback TLS listener.
func (w *world) start(t *testing.T, dir string, wal durable.Config) (*Node, string) {
	t.Helper()
	return w.startAs(t, dir, wal, func(*Config) {})
}

// startAs is start with the fleet role filled in by role.
func (w *world) startAs(t *testing.T, dir string, wal durable.Config, role func(*Config)) (*Node, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tlsConf, err := gaas.SelfSignedServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Tenants:  []service.TenantConfig{w.Config()},
		StateDir: dir,
		WAL:      wal,
		Listener: ln,
		Edge: gaas.ServerConfig{
			Platform:     w.Platform,
			TLS:          tlsConf,
			ReadTimeout:  DefaultReadTimeout,
			WriteTimeout: DefaultWriteTimeout,
			IdleTimeout:  DefaultIdleTimeout,
			MaxConns:     DefaultMaxConns,
		},
	}
	role(&cfg)
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, ln.Addr().String()
}

// splitFrame is a frame size that fans out at the tenant's Workers: 2 —
// two chunks of 32, one on a goroutine of the frame's own.
const splitFrame = 64

// session is one device's whole path over TLS: provision, dial, ticket
// grant, then one frame of items distinct ticketed contributions to round.
func (w *world) session(t *testing.T, addr string, round uint64, items int) {
	t.Helper()
	dev, err := w.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Destroy()
	client, err := gaas.DialContext(context.Background(), addr, gaas.DialConfig{
		NoSession: true, TLS: gaas.InsecureClientTLS(), CallTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	req, err := dev.TicketRequest(round, round)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.RequestTicket(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InstallTicket(grant); err != nil {
		t.Fatal(err)
	}
	value := fixed.NewVector(testDim)
	for i := range value {
		value[i] = fixed.FromFloat(0.25)
	}
	frame := make([][]byte, items)
	for i := range frame {
		value[0] = fixed.FromFloat(0.25) + fixed.Ring(i) // distinct, still in unit range
		tc, err := dev.ContributeTicketed(round, value, nil)
		if err != nil {
			t.Fatal(err)
		}
		frame[i] = glimmer.EncodeTicketedContribution(tc)
	}
	accepted, rejected, err := client.SubmitBatch(frame)
	if err != nil || accepted != items || rejected != 0 {
		t.Fatalf("submit tallied (%d, %d), err %v; want (%d, 0)", accepted, rejected, err, items)
	}
}

// TestStartDrainRecover is the shipped life cycle end to end: a device's
// frame (large enough to fan out) crosses the TLS edge into a durable
// node, Drain seals, snapshots and reports it and leaves nothing running,
// and the next life over the same directory comes back holding the sealed
// round with the identical sum.
func TestStartDrainRecover(t *testing.T) {
	w, dir := newWorld(t), t.TempDir()
	baseline := testbed.TakeCensus()
	n, addr := w.start(t, dir, durable.Config{})
	if rs := n.Recovered(); rs.SnapshotLoaded || rs.Records != 0 {
		t.Fatalf("cold start found state: %+v", rs)
	}
	w.session(t, addr, 7, splitFrame)
	rep, err := n.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.Settle(); err != nil {
		t.Errorf("after Drain, against before Start: %v: the drained node kept some", err)
	}
	if len(rep.Tenants) != 1 || len(rep.Tenants[0].Rounds) != 1 {
		t.Fatalf("report holds %+v, want one tenant with one round", rep.Tenants)
	}
	tenant := rep.Tenants[0]
	round := tenant.Rounds[0]
	if tenant.Name != testService || round.Round != 7 || round.Accepted != splitFrame {
		t.Errorf("report round = %s/%d accepted %d, want %s/7 accepted %d", tenant.Name, round.Round, round.Accepted, testService, splitFrame)
	}
	if tenant.PipelineRejected != 0 || tenant.ManagerRejected != 0 || rep.RoutingRejected != 0 {
		t.Errorf("refusals pipeline=%d manager=%d routing=%d, want 0 at every level",
			tenant.PipelineRejected, tenant.ManagerRejected, rep.RoutingRejected)
	}
	if rep.Role != "standalone" || rep.Edge.ShedBatches != 0 || rep.Edge.RefusedMaxConns != 0 {
		t.Errorf("role %q edge %+v, want a standalone node that refused nothing", rep.Role, rep.Edge)
	}
	if rep.WAL.Records == 0 || !rep.Snapshotted {
		t.Errorf("WAL records=%d snapshotted=%v, want journaled work and a snapshot", rep.WAL.Records, rep.Snapshotted)
	}
	for _, name := range []string{"snapshot", "audit.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("after Drain: %v", err)
		}
	}

	again, _ := w.start(t, dir, durable.Config{})
	defer again.Kill()
	if !again.Recovered().SnapshotLoaded {
		t.Fatalf("second life did not load the snapshot: %+v", again.Recovered())
	}
	hosted, _ := again.Registry().Tenant(testService)
	p, ok := hosted.Manager().Lookup(7)
	if !ok {
		t.Fatal("second life lost round 7")
	}
	if p.Count() != splitFrame || !slices.Equal(p.Sum(), round.Sum) {
		t.Errorf("recovered round 7: count %d sum %v, want %d and %v", p.Count(), p.Sum(), splitFrame, round.Sum)
	}
	// A header naming round 7 reaches the round, which refuses before it
	// reads any further.
	probe := wire.NewWriter().String(testService).Uint64(7).Finish()
	if err := again.Registry().Ingest(probe); err != service.ErrRoundSealed {
		t.Errorf("recovered round 7 takes input (%v), want it sealed", err)
	}
}

// TestDrainShipsToCoordinator is the fleet life cycle at node level: a
// draining node ships its round's partial seal to a coordinator node, and
// the coordinator's own drain reports the merge it still holds and the
// hub's ledger.
func TestDrainShipsToCoordinator(t *testing.T) {
	w := newWorld(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Plain TCP: a shipping node dials its coordinator without TLS.
	coord, err := Start(Config{Listener: ln, Hub: &service.MergeHub{AllowTOFU: true}, Edge: gaas.ServerConfig{Platform: w.Platform}})
	if err != nil {
		t.Fatal(err)
	}
	n, addr := w.startAs(t, t.TempDir(), durable.Config{}, func(c *Config) {
		c.NodeID, c.ShardCount, c.Coordinator = 1, 1, ln.Addr().String()
	})
	w.session(t, addr, 3, 5)
	rep, err := n.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shipped) != 1 || rep.Shipped[0].Err != nil || rep.Shipped[0].Merge.Count != 5 {
		t.Fatalf("node shipped %+v, want one absorbed partial of 5", rep.Shipped)
	}
	if rep.Hub != nil {
		t.Errorf("a node without a hub reported a hub ledger: %+v", rep.Hub)
	}

	crep, err := coord.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if crep.Role != "coordinator" || len(crep.Merges) != 1 || crep.Merges[0].Round != 3 || crep.Merges[0].Merged != 1 {
		t.Fatalf("coordinator role %q holds %+v, want round 3 merged from one partial", crep.Role, crep.Merges)
	}
	want := service.HubStats{Completed: 1, SealsAbsorbed: 1, ContribsMerged: 5}
	if crep.Hub == nil || *crep.Hub != want {
		t.Fatalf("coordinator hub ledger = %+v, want %+v", crep.Hub, want)
	}
}

// TestRestartedFleetNodeMergesUnderItsPin: a fleet node's sealing
// identity survives a restart from its state directory. The coordinator
// pins node 1 on its first partial seal; a second life over the same
// directory — under a freshly provisioned tenant, as glimmerd provisions
// one per process — must still merge under that pin, while a node on a
// fresh directory claiming node 1 is refused.
func TestRestartedFleetNodeMergesUnderItsPin(t *testing.T) {
	w, dir := newWorld(t), t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := Start(Config{Listener: ln, Hub: &service.MergeHub{AllowTOFU: true}, Edge: gaas.ServerConfig{Platform: w.Platform}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Kill()
	fleetNode := func(c *Config) { c.NodeID, c.ShardCount, c.Coordinator = 1, 2, ln.Addr().String() }
	// life ingests one frame into round on a fleet node over dir and
	// drains it, returning the shipment of that round.
	life := func(w *world, dir string, round uint64) (Shipment, []Shipment) {
		t.Helper()
		n, addr := w.startAs(t, dir, durable.Config{}, fleetNode)
		w.session(t, addr, round, 5)
		rep, err := n.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range rep.Shipped {
			if sh.Err == nil && sh.Merge.Round == round {
				return sh, rep.Shipped
			}
		}
		return Shipment{Err: errors.New("no shipment absorbed")}, rep.Shipped
	}

	if sh, all := life(w, dir, 3); sh.Err != nil || sh.Merge.Count != 5 || sh.Merge.Merged != 1 {
		t.Fatalf("life 1 shipped %+v, want round 3 absorbed with 5 contributions", all)
	}
	sh, all := life(newWorld(t), dir, 4)
	if sh.Err != nil || sh.Merge.Count != 5 || sh.Merge.Merged != 1 {
		t.Errorf("life 2 shipped %+v, want round 4 absorbed with 5 contributions", all)
	}
	for _, s := range all {
		if s.Err != nil && strings.Contains(s.Err.Error(), service.ErrSealIdentity.Error()) {
			t.Errorf("life 2 shipment refused by the pin: %v", s.Err)
		}
	}

	// A different key under node 1 is still a swap.
	_, all = life(newWorld(t), t.TempDir(), 5)
	if len(all) != 1 || all[0].Err == nil || !strings.Contains(all[0].Err.Error(), service.ErrSealIdentity.Error()) {
		t.Errorf("a node on a fresh directory shipped %+v, want ErrSealIdentity", all)
	}
}

// TestNodeKeyOnlyForFleetNodes: a node with a NodeID keeps its key in its
// state directory, a standalone node writes none, and a node.key that
// does not parse fails Start, naming the file and leaving it in place.
func TestNodeKeyOnlyForFleetNodes(t *testing.T) {
	w := newWorld(t)
	standalone, fleet := t.TempDir(), t.TempDir()
	start := func(dir string, id uint32) (*Node, error) {
		return Start(Config{Tenants: []service.TenantConfig{w.Config()}, StateDir: dir, NodeID: id})
	}
	for dir, id := range map[string]uint32{standalone: 0, fleet: 1} {
		n, err := start(dir, id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(standalone, "node.key")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a standalone node wrote node.key (%v)", err)
	}
	path := filepath.Join(fleet, "node.key")
	if _, err := os.Stat(path); err != nil {
		t.Errorf("a fleet node kept no key: %v", err)
	}

	garbage := []byte("not a key")
	if err := os.WriteFile(path, garbage, 0o600); err != nil {
		t.Fatal(err)
	}
	if n, err := start(fleet, 1); err == nil {
		n.Kill()
		t.Error("Start took a node.key that does not parse")
	} else if !strings.Contains(err.Error(), path) {
		t.Errorf("Start failed with %v, want an error naming %s", err, path)
	}
	if got, err := os.ReadFile(path); err != nil || !slices.Equal(got, garbage) {
		t.Errorf("Start did not leave the damaged node.key in place (%v)", err)
	}
}

// TestKillLeaksNothing: Kill must release the dead life — WAL fd, audit
// fd, listener, flusher and accept-loop goroutines, and whatever its open
// rounds held (every life takes a frame that fans out) — the way a real
// crash would, and write nothing on its way out: the next life sees
// exactly the flushed prefix. (TestSimKillLeaksNothing's assertions,
// against Node.)
func TestKillLeaksNothing(t *testing.T) {
	w, dir := newWorld(t), t.TempDir()
	// Huge thresholds: only barriers and explicit flushes reach the disk.
	manual := durable.Config{FlushBytes: 1 << 30, FlushInterval: time.Hour}
	n, addr := w.start(t, dir, manual)
	w.session(t, addr, 1, 1)
	w.session(t, addr, 1, 1)
	if err := n.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	n.Kill()

	baseline := testbed.TakeCensus()
	for i := 0; i < 10; i++ {
		n, addr = w.start(t, dir, manual)
		hosted, _ := n.Registry().Tenant(testService)
		if p, ok := hosted.Manager().Lookup(1); !ok || p.Count() != 2 {
			t.Fatalf("life %d recovered round 1 = %v, want the 2 flushed accepts", i, ok)
		}
		w.session(t, addr, 1, splitFrame) // accepted, staged, never flushed: dies with the life
		n.Kill()
	}
	if err := baseline.Settle(); err != nil {
		t.Errorf("after 10 kills: %v: dead lives leaked", err)
	}
}
