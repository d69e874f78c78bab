package node

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"glimmers/internal/durable"
	"glimmers/internal/fixed"
	"glimmers/internal/fleet"
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
	tenant, err := testbed.NewTenant(testbed.TenantSpec{Name: testService, Dim: testDim,
		Hosting: Hosting(service.DefaultTicketTTL)})
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
		Edge:     DefaultEdge(),
	}
	cfg.Edge.Platform, cfg.Edge.TLS = w.Platform, tlsConf
	role(&cfg)
	n, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, ln.Addr().String()
}

// coordinator is glimmerd -coordinator self -tls-self-signed: a node
// serving fleet-merge from hub (nil: one that serves no merges) over TLS,
// the transport of the fleet nodes that ship to it.
func (w *world) coordinator(t *testing.T, hub *service.MergeHub) (*Node, string) {
	t.Helper()
	return w.startAs(t, "", durable.Config{}, func(c *Config) { c.Hub = hub })
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
	coord, coordAddr := w.coordinator(t, &service.MergeHub{AllowTOFU: true})
	n, addr := w.startAs(t, t.TempDir(), durable.Config{}, func(c *Config) {
		c.NodeID, c.Coordinator = 1, coordAddr
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

// TestDrainShipsToATLSCoordinator: a fleet runs one transport. A node
// that serves no TLS dials a TLS coordinator in plain TCP and is cut off:
// the shipment is a transport failure, not a coordinator's answer, and
// the round stays sealed. Restarted with a TLS edge, as its coordinator
// has, the node dials over TLS and the round merges.
func TestDrainShipsToATLSCoordinator(t *testing.T) {
	w, dir := newWorld(t), t.TempDir()
	hub := &service.MergeHub{AllowTOFU: true}
	coord, coordAddr := w.coordinator(t, hub)
	defer coord.Kill()

	plain, err := Start(Config{Tenants: []service.TenantConfig{w.Config()}, StateDir: dir, NodeID: 1, Coordinator: coordAddr})
	if err != nil {
		t.Fatal(err)
	}
	frame, sum := w.signedFrame(t, 3, 5)
	if _, errs := plain.Registry().IngestBatch(frame); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	rep, err := plain.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shipped) != 1 || rep.Shipped[0].Err == nil || errors.Is(rep.Shipped[0].Err, gaas.ErrRemote) ||
		!strings.HasPrefix(rep.Shipped[0].Err.Error(), "shipping "+testService+" round 3: ") {
		t.Fatalf("a plaintext node shipped %+v to a TLS coordinator, want one transport failure for round 3", rep.Shipped)
	}

	n, _ := w.startAs(t, dir, durable.Config{}, func(c *Config) { c.NodeID, c.Coordinator = 1, coordAddr })
	rep, err = n.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shipped) != 1 || rep.Shipped[0].Err != nil || rep.Shipped[0].Merge.Round != 3 ||
		rep.Shipped[0].Merge.Count != 5 || !slices.Equal(rep.Shipped[0].Merge.Sum, sum) {
		t.Fatalf("a TLS node shipped %+v, want round 3 absorbed with 5 contributions", rep.Shipped)
	}
	if st := hub.Stats(); st.SealsAbsorbed != 1 || st.SealsRefused != 0 {
		t.Errorf("hub absorbed %d and refused %d seals, want 1 and 0", st.SealsAbsorbed, st.SealsRefused)
	}
}

// TestRestartedFleetNodeMergesUnderItsPin: a fleet node's sealing
// identity survives a restart from its state directory. The coordinator
// pins node 1 on its first partial seal; a second life over the same
// directory — under a freshly provisioned tenant, as glimmerd provisions
// one per process — must still merge under that pin, and ships only its
// new round: the round the first life shipped is not sent again. A node
// on a fresh directory claiming node 1 is refused.
func TestRestartedFleetNodeMergesUnderItsPin(t *testing.T) {
	w, dir := newWorld(t), t.TempDir()
	hub := &service.MergeHub{AllowTOFU: true}
	coord, coordAddr := w.coordinator(t, hub)
	defer coord.Kill()
	fleetNode := func(c *Config) { c.NodeID, c.Coordinator = 1, coordAddr }
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
	refused := hub.Stats().SealsRefused
	sh, all := life(newWorld(t), dir, 4)
	if sh.Err != nil || sh.Merge.Count != 5 || sh.Merge.Merged != 1 {
		t.Errorf("life 2 shipped %+v, want round 4 absorbed with 5 contributions", all)
	}
	for _, s := range all {
		if errors.Is(s.Err, wire.ErrSealIdentity) {
			t.Errorf("life 2 shipment refused by the pin: %v", s.Err)
		} else if s.Err != nil {
			t.Errorf("life 2 shipment refused: %v", s.Err)
		}
	}
	if got := hub.Stats().SealsRefused; got != refused {
		t.Errorf("life 2 moved the hub's refusals from %d to %d", refused, got)
	}

	// A different key under node 1 is still a swap.
	_, all = life(newWorld(t), t.TempDir(), 5)
	if len(all) != 1 || !errors.Is(all[0].Err, wire.ErrSealIdentity) {
		t.Errorf("a node on a fresh directory shipped %+v, want ErrSealIdentity", all)
	}
}

// TestKilledBeforeCloseResendsOnce is the one window in which an honest
// fleet node sends a seal twice: it dies after the coordinator answered a
// round's seal and before the round's close was durable. Life 1 ships
// round 3 by hand and is killed, leaving the round sealed and not closed;
// life 2's drain re-sends it once, reads the replay refusal as an answer
// and closes it; life 3's drain ships nothing.
func TestKilledBeforeCloseResendsOnce(t *testing.T) {
	w, dir := newWorld(t), t.TempDir()
	hub := &service.MergeHub{AllowTOFU: true}
	coord, coordAddr := w.coordinator(t, hub)
	defer coord.Kill()
	fleetNode := func(c *Config) { c.NodeID, c.Coordinator = 1, coordAddr }

	n, addr := w.startAs(t, dir, durable.Config{}, fleetNode)
	w.session(t, addr, 3, 5)
	hosted, _ := n.Registry().Tenant(testService)
	raw, err := hosted.Manager().ExportPartialSeal(3, n.NodeSeal())
	if err != nil {
		t.Fatal(err)
	}
	client, err := gaas.DialContext(context.Background(), coordAddr, gaas.DialConfig{NoSession: true, TLS: gaas.InsecureClientTLS()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if m, err := client.MergePartialSeal(raw); err != nil || m.Merged != 1 || m.Count != 5 {
		t.Fatalf("life 1 shipped round 3 as %+v, %v; want one absorbed partial of 5", m, err)
	}
	n.Kill()

	drain := func() Report {
		t.Helper()
		n, _ := w.startAs(t, dir, durable.Config{}, fleetNode)
		rep, err := n.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := drain(); len(rep.Shipped) != 1 || !errors.Is(rep.Shipped[0].Err, wire.ErrSealReplay) {
		t.Errorf("life 2 shipped %+v, want round 3 re-sent once and refused as ErrSealReplay", rep.Shipped)
	}
	rep := drain()
	if len(rep.Shipped) != 0 {
		t.Errorf("life 3 shipped %+v, want nothing", rep.Shipped)
	}
	if r := rep.Tenants[0].Rounds; len(r) != 1 || r[0].Round != 3 || r[0].Accepted != 5 {
		t.Errorf("life 3 holds rounds %+v, want round 3 with 5 contributions", r)
	}
	if st := hub.Stats(); st.SealsAbsorbed != 1 || st.SealsRefused != 1 {
		t.Errorf("hub absorbed %d and refused %d seals, want 1 and 1", st.SealsAbsorbed, st.SealsRefused)
	}
}

// TestUnansweredRoundShipsAtNextDrain: a refusal that is not a merge
// sentinel is no answer. Life 1 ships round 3 to a node that serves no
// merges, which refuses the command; the round stays sealed, and life 2's
// drain ships it to a real coordinator, which absorbs it.
func TestUnansweredRoundShipsAtNextDrain(t *testing.T) {
	w, dir := newWorld(t), t.TempDir()
	listen := func(hub *service.MergeHub) string {
		t.Helper()
		n, addr := w.coordinator(t, hub)
		t.Cleanup(n.Kill)
		return addr
	}
	life := func(coordinator string, ingest bool) []Shipment {
		t.Helper()
		n, addr := w.startAs(t, dir, durable.Config{}, func(c *Config) { c.NodeID, c.Coordinator = 1, coordinator })
		if ingest {
			w.session(t, addr, 3, 5)
		}
		rep, err := n.Drain()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Shipped
	}
	if sh := life(listen(nil), true); len(sh) != 1 || !errors.Is(sh[0].Err, gaas.ErrUnknownCommand) {
		t.Fatalf("life 1 shipped %+v to a node without a hub, want ErrUnknownCommand", sh)
	}
	if sh := life(listen(&service.MergeHub{AllowTOFU: true}), false); len(sh) != 1 || sh[0].Err != nil || sh[0].Merge.Count != 5 {
		t.Errorf("life 2 shipped %+v, want round 3 absorbed with 5 contributions", sh)
	}
}

// TestDrainBoundedBySilentCoordinator: a coordinator that completes the
// TLS handshake and never answers holds Drain for one call, not one per
// round: the first round's call times out, the second is not sent, and
// both stay sealed with a transport error until the next drain ships them
// to a coordinator that answers.
func TestDrainBoundedBySilentCoordinator(t *testing.T) {
	defer func(d time.Duration) { shipTimeout = d }(shipTimeout)
	shipTimeout = 200 * time.Millisecond
	w, dir := newWorld(t), t.TempDir()
	tlsConf, err := gaas.SelfSignedServerTLS("127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := tls.Listen("tcp", "127.0.0.1:0", tlsConf)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	var frames atomic.Int32
	go func() {
		for {
			conn, err := silent.Accept()
			if err != nil {
				return
			}
			go func() { // handshakes, reads frames, never answers
				var hdr [4]byte
				for {
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					frames.Add(1)
					io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[:])))
				}
			}()
		}
	}()

	n, addr := w.startAs(t, dir, durable.Config{}, func(c *Config) { c.NodeID, c.Coordinator = 1, silent.Addr().String() })
	w.session(t, addr, 3, 2)
	w.session(t, addr, 4, 2)
	done := make(chan Report, 1)
	start := time.Now()
	go func() {
		rep, err := n.Drain()
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	var rep Report
	select {
	case rep = <-done:
	case <-time.After(3 * shipTimeout):
		t.Fatalf("Drain still blocked on a silent coordinator after %v", 3*shipTimeout)
	}
	if len(rep.Shipped) != 2 {
		t.Fatalf("shipped %+v after %v, want rounds 3 and 4", rep.Shipped, time.Since(start))
	}
	for i, sh := range rep.Shipped {
		if want := fmt.Sprintf("shipping %s round %d: ", testService, 3+i); sh.Err == nil || errors.Is(sh.Err, gaas.ErrRemote) ||
			!strings.HasPrefix(sh.Err.Error(), want) || !errors.Is(sh.Err, os.ErrDeadlineExceeded) {
			t.Errorf("shipment %d: err = %v, want %q and a call timeout", i, sh.Err, want)
		}
	}
	if got := frames.Load(); got != 1 {
		t.Errorf("the silent coordinator read %d frames, want 1: no round is sent after a transport failure", got)
	}
	sealed := 0
	for rec := range n.Registry().Records() {
		if rec.Kind == service.RoundSealed {
			sealed++
		}
	}
	if sealed != 2 {
		t.Errorf("%d rounds left sealed, want 2", sealed)
	}

	coord, coordAddr := w.coordinator(t, &service.MergeHub{AllowTOFU: true})
	defer coord.Kill()
	again, _ := w.startAs(t, dir, durable.Config{}, func(c *Config) { c.NodeID, c.Coordinator = 1, coordAddr })
	rep, err = again.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shipped) != 2 || rep.Shipped[0].Err != nil || rep.Shipped[1].Err != nil ||
		rep.Shipped[0].Merge.Count != 2 || rep.Shipped[1].Merge.Count != 2 {
		t.Fatalf("next drain shipped %+v, want rounds 3 and 4 absorbed with 2 contributions each", rep.Shipped)
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

// fleetOf is node id of a glimmerd fleet started with -node-id id and
// -peers over ids, shipping to coordinator: Start makes every tenant
// create only the rounds the peers' ring places on id.
func fleetOf(t *testing.T, ids []uint32, id uint32, coordinator string) func(*Config) {
	t.Helper()
	ring, err := fleet.NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	return func(c *Config) { c.NodeID, c.Ring, c.Coordinator = id, ring, coordinator }
}

// TestHostingOwnsTheRingShare: the template every node hosts a tenant
// from evicts at the quota, admits rounds within 16 of the ones in flight,
// grants tickets exactly when a TTL is given, and sets nothing else; Start
// places it on the node's ring, so with -peers the tenant creates exactly
// the rounds the peers' ring places on this node and, without, every
// round — and the Config it was handed keeps no placement.
func TestHostingOwnsTheRingShare(t *testing.T) {
	if h, want := Hosting(0), (service.TenantConfig{EvictAtCap: true, RoundWindow: 16}); !reflect.DeepEqual(h, want) {
		t.Errorf("Hosting without tickets = %+v, want %+v", h, want)
	}
	ticketed := service.TenantConfig{EvictAtCap: true, RoundWindow: 16, TicketPolicy: &service.TicketConfig{TTL: 90}}
	if h := Hosting(90); !reflect.DeepEqual(h, ticketed) {
		t.Errorf("Hosting with a 90 s ticket TTL = %+v, want %+v", h, ticketed)
	}

	w := newWorld(t)
	ring, err := fleet.NewRing([]uint32{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, placed := range []*fleet.Ring{ring, nil} {
		cfg := Config{Tenants: []service.TenantConfig{w.Config()}, NodeID: 2, Ring: placed}
		n, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosted, _ := n.Registry().Tenant(testService)
		owns := hosted.Config().Owns
		for round := uint64(1); round <= 64; round++ {
			want := placed == nil || ring.Owner([]byte(testService), round) == 2
			if got := owns == nil || owns(round); got != want {
				t.Fatalf("ring %v: round %d: node 2 owns it = %v, want %v", placed != nil, round, got, want)
			}
		}
		if cfg.Tenants[0].Owns != nil {
			t.Error("Start placed the caller's tenant Config, not its own copy")
		}
		n.Kill()
	}
}

// signedFrame is n distinct signed contributions to round from one fresh
// device, and their exact sum in merge-result lanes.
func (w *world) signedFrame(t *testing.T, round uint64, n int) ([][]byte, []uint64) {
	t.Helper()
	dev, err := w.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Destroy()
	frame, sum := make([][]byte, n), fixed.NewVector(testDim)
	for i := range frame {
		value := fixed.NewVector(testDim)
		for j := range value {
			value[j] = fixed.FromFloat(0.25)
		}
		value[0] += fixed.Ring(i + int(round)) // distinct, still in unit range
		sc, err := dev.Contribute(round, value, nil)
		if err != nil {
			t.Fatal(err)
		}
		frame[i] = glimmer.EncodeSignedContribution(sc)
		sum.AddInPlace(value)
	}
	lanes := make([]uint64, len(sum))
	for i, r := range sum {
		lanes[i] = uint64(r)
	}
	return frame, lanes
}

// TestFleetOfThreeMergesEveryRound: three nodes configured as glimmerd
// configures them from -node-id and -peers, fed through gaas.DialFleet,
// ship every round to a coordinator node at drain, and every round's
// merge completes from the one partial its ring owner holds, with the
// round's whole cohort and its exact sum.
func TestFleetOfThreeMergesEveryRound(t *testing.T) {
	w := newWorld(t)
	hub := &service.MergeHub{AllowTOFU: true}
	coord, coordAddr := w.coordinator(t, hub)
	defer coord.Kill()
	ids := []uint32{1, 2, 3}
	nodes := make([]*Node, len(ids))
	var peers []gaas.FleetNode
	for i, id := range ids {
		var addr string
		nodes[i], addr = w.startAs(t, t.TempDir(), durable.Config{}, fleetOf(t, ids, id, coordAddr))
		peers = append(peers, gaas.FleetNode{ID: id, Addr: addr})
	}
	fc, err := gaas.DialFleet(context.Background(), gaas.FleetConfig{Nodes: peers, Dial: gaas.DialConfig{
		TLS: gaas.InsecureClientTLS(), CallTimeout: 10 * time.Second,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	const rounds, cohort = 8, 5
	sums := make(map[uint64][]uint64, rounds)
	owners := make(map[uint32]int)
	for round := uint64(1); round <= rounds; round++ {
		frame, sum := w.signedFrame(t, round, cohort)
		if accepted, rejected, err := fc.SubmitBatch(frame); err != nil || accepted != cohort || rejected != 0 {
			t.Fatalf("round %d tallied (%d, %d), err %v; want (%d, 0)", round, accepted, rejected, err, cohort)
		}
		sums[round] = sum
		owners[fc.Ring().Owner([]byte(testService), round)]++
	}
	if len(owners) < 2 {
		t.Fatalf("the ring placed all %d rounds on one node (%v); the test needs a spread", rounds, owners)
	}

	shipped := 0
	for i, n := range nodes {
		rep, err := n.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range rep.Shipped {
			if sh.Err != nil {
				t.Errorf("node %d: %v", ids[i], sh.Err)
				continue
			}
			shipped++
			m := sh.Merge
			complete := m.Expect != 0 && m.Merged >= m.Expect
			if !complete || m.Expect != 1 || m.Merged != 1 || m.Count != cohort || m.Rejected != 0 {
				t.Errorf("node %d shipped round %d: merge %d/%d partials, cohort %d, rejected %d; want complete at 1/1 with cohort %d",
					ids[i], m.Round, m.Merged, m.Expect, m.Count, m.Rejected, cohort)
			}
			if !slices.Equal(m.Sum, sums[m.Round]) {
				t.Errorf("round %d merged sum %v, want %v", m.Round, m.Sum, sums[m.Round])
			}
		}
	}
	if shipped != rounds {
		t.Errorf("the fleet shipped %d partials, want one per round (%d)", shipped, rounds)
	}
	if st := hub.Stats(); st.Completed != rounds || st.SealsAbsorbed != rounds || st.SealsRefused != 0 || st.ContribsMerged != rounds*cohort {
		t.Errorf("hub ledger %+v, want %d completed merges of %d contributions each", st, rounds, cohort)
	}
}

// TestCoordinatorNodeMergesItsOwnRounds: a fleet node that is its own
// coordinator (glimmerd's -node-id 1 -coordinator self) merges the rounds
// its ring gives it into its own hub at drain, beside the seals its peer
// ships to it, so every round the fleet took is merged with its whole
// cohort and its exact sum.
func TestCoordinatorNodeMergesItsOwnRounds(t *testing.T) {
	w := newWorld(t)
	ids := []uint32{1, 2}
	hub := &service.MergeHub{AllowTOFU: true}
	// A plaintext fleet: each node serves plain TCP, so the peer ships
	// over it too.
	coordinator, coordAddr := w.startAs(t, t.TempDir(), durable.Config{}, func(c *Config) {
		fleetOf(t, ids, 1, "")(c)
		c.Hub, c.Edge.TLS = hub, nil
	})
	peer, peerAddr := w.startAs(t, t.TempDir(), durable.Config{}, func(c *Config) {
		fleetOf(t, ids, 2, coordAddr)(c)
		c.Edge.TLS = nil
	})
	fc, err := gaas.DialFleet(context.Background(), gaas.FleetConfig{
		Nodes: []gaas.FleetNode{{ID: 1, Addr: coordAddr}, {ID: 2, Addr: peerAddr}},
		Dial:  gaas.DialConfig{CallTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	const rounds, cohort = 8, 3
	sums := make(map[uint64][]uint64, rounds)
	owners := make(map[uint32]int)
	for round := uint64(1); round <= rounds; round++ {
		frame, sum := w.signedFrame(t, round, cohort)
		if accepted, rejected, err := fc.SubmitBatch(frame); err != nil || accepted != cohort || rejected != 0 {
			t.Fatalf("round %d tallied (%d, %d), err %v; want (%d, 0)", round, accepted, rejected, err, cohort)
		}
		sums[round] = sum
		owners[fc.Ring().Owner([]byte(testService), round)]++
	}
	if len(owners) != 2 {
		t.Fatalf("the ring placed all %d rounds on one node (%v); the test needs a spread", rounds, owners)
	}

	shipped := 0
	for _, n := range []*Node{peer, coordinator} {
		rep, err := n.Drain()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range rep.Shipped {
			if sh.Err != nil {
				t.Errorf("%s: %v", rep.Role, sh.Err)
			}
		}
		if len(rep.Shipped) != owners[n.cfg.NodeID] {
			t.Errorf("%s shipped %d partials, want one per round it owns (%d)", rep.Role, len(rep.Shipped), owners[n.cfg.NodeID])
		}
		shipped += len(rep.Shipped)
		if n != coordinator {
			continue
		}
		if len(rep.Merges) != rounds {
			t.Errorf("the coordinator holds %d merges, want every round (%d)", len(rep.Merges), rounds)
		}
		for _, m := range rep.Merges {
			if m.Count != cohort || m.Rejected != 0 || !slices.Equal(m.Sum, sums[m.Round]) {
				t.Errorf("round %d merged cohort %d rejected %d sum %v, want %d, 0, %v", m.Round, m.Count, m.Rejected, m.Sum, cohort, sums[m.Round])
			}
		}
	}
	if st := hub.Stats(); shipped != rounds || st.Completed != rounds || st.SealsAbsorbed != rounds || st.ContribsMerged != rounds*cohort {
		t.Errorf("%d partials shipped, hub ledger %+v; want %d completed merges of %d contributions each", shipped, st, rounds, cohort)
	}
}

// TestNodeRefusesRoundItDoesNotOwn: a valid contribution sent to a fleet
// node that the ring does not make its round's owner is refused before
// it creates the round, counted once among the node's manager refusals,
// and still counted after a restart from the node's state directory. The
// node ships nothing for the round, and the owner's seal alone completes
// the merge with exactly the honest cohort.
func TestNodeRefusesRoundItDoesNotOwn(t *testing.T) {
	w := newWorld(t)
	coord, coordinator := w.coordinator(t, &service.MergeHub{AllowTOFU: true})
	defer coord.Kill()
	ids := []uint32{1, 2, 3}
	ring, err := fleet.NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	round := uint64(1)
	for ring.Owner([]byte(testService), round) != 1 {
		round++
	}
	submit := func(addr string, frame [][]byte) (accepted, rejected int) {
		t.Helper()
		client, err := gaas.DialContext(context.Background(), addr, gaas.DialConfig{
			NoSession: true, TLS: gaas.InsecureClientTLS(), CallTimeout: 10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if accepted, rejected, err = client.SubmitBatch(frame); err != nil {
			t.Fatal(err)
		}
		return accepted, rejected
	}

	const cohort = 5
	owner, ownerAddr := w.startAs(t, t.TempDir(), durable.Config{}, fleetOf(t, ids, 1, coordinator))
	honest, sum := w.signedFrame(t, round, cohort)
	if a, r := submit(ownerAddr, honest); a != cohort || r != 0 {
		t.Fatalf("owner tallied (%d, %d), want (%d, 0)", a, r, cohort)
	}
	dir := t.TempDir()
	other, otherAddr := w.startAs(t, dir, durable.Config{}, fleetOf(t, ids, 2, coordinator))
	stray, _ := w.signedFrame(t, round, 1)
	if a, r := submit(otherAddr, stray); a != 0 || r != 1 {
		t.Errorf("node 2 tallied (%d, %d) for a round node 1 owns, want (0, 1)", a, r)
	}
	rep, err := other.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shipped) != 0 {
		t.Errorf("node 2 shipped %+v, want nothing", rep.Shipped)
	}
	if tr := rep.Tenants[0]; len(tr.Rounds) != 0 || tr.ManagerRejected != 1 || tr.PipelineRejected != 0 {
		t.Errorf("node 2 holds rounds %+v with refusals manager=%d pipeline=%d, want no round and one manager refusal",
			tr.Rounds, tr.ManagerRejected, tr.PipelineRejected)
	}

	again, _ := w.startAs(t, dir, durable.Config{}, fleetOf(t, ids, 2, coordinator))
	hosted, _ := again.Registry().Tenant(testService)
	if got := hosted.Manager().Rejected(); got != 1 {
		t.Errorf("node 2 restarted with %d manager refusals, want 1", got)
	}
	// The edge replies with tallies only; in process the refusal is named.
	if err := again.Registry().Ingest(stray[0]); !errors.Is(err, service.ErrNotOwner) {
		t.Errorf("node 2 ingested the stray as %v, want ErrNotOwner", err)
	}
	if got := hosted.Manager().Rejected(); got != 2 {
		t.Errorf("a second refusal left %d manager refusals, want 2", got)
	}
	again.Kill()

	rep, err = owner.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shipped) != 1 || rep.Shipped[0].Err != nil {
		t.Fatalf("node 1 shipped %+v, want one absorbed partial", rep.Shipped)
	}
	m := rep.Shipped[0].Merge
	if m.Round != round || m.Expect != 1 || m.Merged != 1 || m.Count != cohort || !slices.Equal(m.Sum, sum) {
		t.Errorf("round %d merge = %d/%d partials, cohort %d, sum %v; want 1/1, %d, %v",
			m.Round, m.Merged, m.Expect, m.Count, m.Sum, cohort, sum)
	}
}

// TestDisagreeingRingsWithholdNeverWrong: two nodes whose -peers disagree
// — node 1 started with peers 1 and 3, node 2 with 2 and 3 — can both own
// one round, and each takes a cohort for it. At drain the coordinator
// merges the first seal and refuses the second with ErrMergeComplete: the
// round is withheld in part, never summed wrong.
func TestDisagreeingRingsWithholdNeverWrong(t *testing.T) {
	w := newWorld(t)
	hub := &service.MergeHub{AllowTOFU: true}
	coord, coordAddr := w.coordinator(t, hub)
	defer coord.Kill()
	peersA, peersB := []uint32{1, 3}, []uint32{2, 3}
	ringA, err := fleet.NewRing(peersA, 0)
	if err != nil {
		t.Fatal(err)
	}
	ringB, err := fleet.NewRing(peersB, 0)
	if err != nil {
		t.Fatal(err)
	}
	round := uint64(1)
	for ringA.Owner([]byte(testService), round) != 1 || ringB.Owner([]byte(testService), round) != 2 {
		round++
	}
	a, _ := w.startAs(t, t.TempDir(), durable.Config{}, fleetOf(t, peersA, 1, coordAddr))
	b, _ := w.startAs(t, t.TempDir(), durable.Config{}, fleetOf(t, peersB, 2, coordAddr))
	frameA, sumA := w.signedFrame(t, round, 3)
	frameB, _ := w.signedFrame(t, round, 2)
	for _, fed := range []struct {
		n     *Node
		frame [][]byte
	}{{a, frameA}, {b, frameB}} {
		if _, errs := fed.n.Registry().IngestBatch(fed.frame); errors.Join(errs...) != nil {
			t.Fatalf("node %d refused a round its ring gives it: %v", fed.n.cfg.NodeID, errors.Join(errs...))
		}
	}

	repA, err := a.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(repA.Shipped) != 1 || repA.Shipped[0].Err != nil {
		t.Fatalf("node 1 shipped %+v, want its seal merged", repA.Shipped)
	}
	repB, err := b.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(repB.Shipped) != 1 || !errors.Is(repB.Shipped[0].Err, wire.ErrMergeComplete) {
		t.Fatalf("node 2 shipped %+v, want its seal refused with %v", repB.Shipped, wire.ErrMergeComplete)
	}
	m, ok := hub.Lookup(testService, round)
	if !ok {
		t.Fatal("the coordinator holds no merge for the round")
	}
	if res := m.Result(); res.Count != 3 || !slices.Equal(res.Sum, sumA) {
		t.Errorf("round %d merged cohort %d sum %v, want node 1's partial alone: 3 and %v", round, res.Count, res.Sum, sumA)
	}
	if st := hub.Stats(); st.SealsAbsorbed != 1 || st.SealsRefused != 1 || st.ContribsMerged != 3 {
		t.Errorf("hub ledger = %+v, want one seal of 3 merged and one refused", st)
	}
}
