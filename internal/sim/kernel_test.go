package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"glimmers/internal/durable"
	"glimmers/internal/fleet"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	glimnode "glimmers/internal/node"
	"glimmers/internal/service"
	"glimmers/internal/testbed"
)

// TestSimCrashPointSweep moves the crash point through round 2 instead of
// leaving it where RunCrashRecovery hand-places it: every flushed-prefix
// length k, each with 0, 1 and 2 accepts staged-and-lost behind it. Every
// point must recover exactly k contributions, still refuse a flushed
// duplicate and a forged MAC, accept the staged re-sends, seal round 2 to
// the exact sum with two rejections on the books, keep round 1 sealed and
// exact, and restore every ticket. The sweep is a loop over the scenario
// literal in runCrash — a crash point is data, not a world.
func TestSimCrashPointSweep(t *testing.T) {
	cfg := CrashConfig{Seed: 29 + *seedOffset, Devices: 6, Dim: 4}
	for k := 0; k < cfg.Devices; k++ {
		for staged := 0; staged <= min(2, cfg.Devices-k-1); staged++ {
			t.Run(fmt.Sprintf("flushed=%d/staged=%d", k, staged), func(t *testing.T) {
				rep, err := runCrash(t.TempDir(), cfg, k, staged)
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range rep.Violations {
					t.Errorf("invariant violation: %s", v)
				}
				if !rep.Round1Exact || !rep.Round2Exact || !rep.SealObserved {
					t.Errorf("exactness: round1=%v round2=%v seal-observed=%v", rep.Round1Exact, rep.Round2Exact, rep.SealObserved)
				}
				if rep.PreCrashAccepted != k+staged || rep.StagedLost != staged {
					t.Errorf("pre-crash accepted=%d staged-lost=%d, want %d and %d", rep.PreCrashAccepted, rep.StagedLost, k+staged, staged)
				}
				if rep.FinalCount != cfg.Devices || rep.TicketsRestored != cfg.Devices {
					t.Errorf("final count=%d tickets=%d, want %d each", rep.FinalCount, rep.TicketsRestored, cfg.Devices)
				}
				if rep.RecoverCrash.TruncatedBytes != 7 {
					t.Errorf("truncated %d bytes, want the 7-byte torn tail", rep.RecoverCrash.TruncatedBytes)
				}
			})
		}
	}
}

// durableWorld is a small signed-path world of durable nodes whose
// flushers never fire on their own, so a test decides what is on disk. A
// world of more than one node is a fleet: it has a coordinator, so its
// nodes can drain.
func durableWorld(t *testing.T, nodes, devices int, rounds ...uint64) *script {
	t.Helper()
	var specs []nodeSpec
	if nodes > 1 {
		specs = append(specs, nodeSpec{Config: glimnode.Config{Hub: &service.MergeHub{AllowTOFU: true}, Edge: glimnode.DefaultEdge()}, transport: TransportTCP})
	}
	for id := uint32(1); id <= uint32(nodes); id++ {
		specs = append(specs, nodeSpec{Config: glimnode.Config{NodeID: id, StateDir: t.TempDir(),
			WAL: durable.Config{FlushBytes: 1 << 30, FlushInterval: time.Hour}}})
	}
	w, err := build([]testbed.TenantSpec{{
		Name: "kernel.example", Seed: 5, Devices: devices, Dim: 3, Rounds: rounds,
		Hosting: hosting(nil),
	}}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.shutdown)
	return w.scripts[0]
}

// TestSimKillLeaksNothing: a simulated kill must release the dead life —
// its WAL fd and its flusher and compactor goroutines — the way a real
// crash would, not park them until the process ends. After twenty-five
// kills, and a last one that ends the life the loop left running, no
// goroutine started since before the first life is alive; recovery after
// such a kill still sees exactly the flushed prefix (the released store
// wrote nothing on its way out), and the crash loop leaves a bounded
// directory: a recovery that replays a chain of generations folds it into
// the image, so the state dir holds the image and at most two WALs.
func TestSimKillLeaksNothing(t *testing.T) {
	baseline := testbed.TakeCensus()
	s := durableWorld(t, 1, 6, 1)
	scenario := []step{ingest(owner, 0, 2), flush(owner), ingest(owner, 2, 5), crash(owner, false), holds(owner, 2)}
	for i := 0; i < 24; i++ {
		scenario = append(scenario, crash(owner, false), holds(owner, 2))
	}
	if err := s.play(inRound(1, scenario...)); err != nil {
		t.Fatal(err)
	}
	for _, v := range s.violations {
		t.Errorf("invariant violation: %s", v)
	}
	last := s.nodes[1]
	delete(s.nodes, 1) // killed here, not drained at cleanup
	last.Kill()
	if err := baseline.Settle(); err != nil {
		t.Errorf("after 26 simulated kills: %v: dead lives leaked", err)
	}
	dir := last.StateDir
	wals, _ := filepath.Glob(filepath.Join(dir, "wal.*"))
	if _, err := os.Stat(filepath.Join(dir, "snapshot")); err != nil || len(wals) > 2 {
		t.Errorf("after 25 simulated kills the state dir holds %d WALs (snapshot: %v), want the image and at most two", len(wals), err)
	}
}

// TestSimCrashDuringPartition is a fault product no hand-built world
// covered: the owner crashes — losing a staged accept — while some of its
// clients are cut off from it and fail over to a node that does not own
// the round. It is the README's example of a new scenario being a literal.
func TestSimCrashDuringPartition(t *testing.T) {
	s := durableWorld(t, 3, 6, 1)
	err := s.play(inRound(1,
		ingest(owner, 0, 2),       // the owner takes two, then is cut off from the rest
		notOwned(successor, 2, 4), // they fail over to another node, which does not own the round
		flush(owner),
		ingest(owner, 2, 3), // a client on the owner's side: staged, never flushed
		crash(owner, true),  // the owner dies mid-partition
		holds(owner, 2),     // and comes back with the flushed prefix
		duplicate(owner, 1), // its dedup table survived
		ingest(owner, 2, 6), // the partition heals: the lost accept re-sends, the cohort completes
		drain(owner),        // the owner's one seal ships and merges the round
		merged(1),           // exact sum, full cohort, one refusal on the owner's books
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.violations {
		t.Errorf("invariant violation: %s", v)
	}
	for id, n := range s.nodes {
		r := s.injected[id]
		s.reconcile(fmt.Sprintf("node %d", id), n.ledger(n.manager(s.t)), refusals{tenant: r.tenant, manager: r.manager, registry: 0})
	}
	for _, v := range s.violations {
		t.Errorf("refusal reconciliation: %s", v)
	}
}

// TestSimCheckerReportsBrokenPromises: the checker is what turns a broken
// promise into a failure, so it must report one. A durable two-node round
// is played to the end with two claims that do not hold — the owner holds
// one contribution more than it does, and the merge carries one refusal
// more than the owner booked — and the run reports exactly those two.
func TestSimCheckerReportsBrokenPromises(t *testing.T) {
	s := durableWorld(t, 2, 4, 1)
	if err := s.play(inRound(1, ingest(owner, 0, 4), holds(owner, 5), drain(owner), merged(1))); err != nil {
		t.Fatal(err)
	}
	want := []string{
		fmt.Sprintf("node %d round 1 count = 4, want 5", s.placed[owner]),
		"round 1 merged rejected = 0, want 1",
	}
	if !slices.Equal(s.violations, want) {
		t.Errorf("violations = %q, want %q", s.violations, want)
	}
}

// TestSimHostsTenantsAsGlimmerd: every node life the sim starts — in the
// plan-driven signed and ticketed scenarios, the multi-tenant mix
// in-process and over TLS, the fleet with its coordinator and its owners
// restarted by every drain and the crash, both edges of the adversary
// scenario, both lives of the crash scenario and this file's durable
// fleet — is a node.Config glimmerd could start. A fleet's coordinator is
// glimmerd -coordinator self: NodeID 0, no ring, a hub, listening. Every
// other life's ring is its world's ring, which names its NodeID
// (-node-id, -peers), and its Coordinator is its world's coordinator's
// address (-coordinator host:port), or empty in a world without one. Its
// WAL runs at durable's defaults, or at the crash seam that keeps the
// flusher still (-wal-flush-bytes, -wal-flush-interval). Every tenant it
// hosts is node.Hosting's template, as glimmerd builds it from
// -ticket-ttl (the default TTL, or 0), placed by Start on the ring's
// share of rounds (all of them, off the ring). The tenant's identity
// (name, keys, enclave, vetted measurements) comes from testbed; the
// ticket clock is the only other field allowed to differ. Every node life
// with a listener serves node.DefaultEdge(), glimmerd's edge without
// flags, but for the Platform and TLS it is handed and, in the adversary
// scenario, the -read-timeout and -max-conns its attacks need.
func TestSimHostsTenantsAsGlimmerd(t *testing.T) {
	type life struct {
		glimnode.Config
		hosted    []service.TenantConfig
		listening bool
		addr      string
	}
	var (
		mu    sync.Mutex
		lives []life
	)
	started = func(n *node) {
		mu.Lock()
		defer mu.Unlock()
		l := life{Config: n.Config, listening: n.Server() != nil, addr: n.addr}
		for _, tenant := range n.Registry().Tenants() {
			l.hosted = append(l.hosted, tenant.Config())
		}
		lives = append(lives, l)
	}
	t.Cleanup(func() { started = func(*node) {} })
	small := Config{Seed: 3, Devices: 4, Rounds: 2, Overlap: 2, Dim: 2, Faults: fullFaultPlan()}
	ticketed := small
	ticketed.Ticketed = true
	bots := Config{Devices: 4, Rounds: 1, Workload: WorkloadBotdetect}
	plan := func(transport TransportKind, cfgs ...Config) func() error {
		return func() error {
			_, err := MultiScenario{Name: "hosting", Tenants: cfgs, Transport: transport}.Run()
			return err
		}
	}
	seam := durable.Config{FlushBytes: 1 << 30, FlushInterval: time.Hour}
	// Fleet lives: the coordinator, the three nodes, a restart per drain
	// (one a round) and the crashed owner's restart.
	fleetLives := 1 + fleetNodes + fleetRounds + 1
	for _, sc := range []struct {
		name        string
		lives       int  // node lives the scenario starts, at least
		listening   int  // of them with a listener, at least
		ticketed    bool // some tenant is on the ticketed path
		coordinated bool // the world has a coordinator
		run         func() error
	}{
		{"signed", 1, 0, false, false, plan(TransportDirect, small)},
		{"ticketed", 1, 0, true, false, plan(TransportDirect, ticketed)},
		{"multi-tenant", 1, 0, true, false, plan(TransportDirect, small, ticketed, bots)},
		{"multi-tenant TLS", 1, 1, true, false, plan(TransportTLS, small, ticketed, bots)},
		{"fleet", fleetLives, 1, false, true, func() error { _, err := RunFleet(t.TempDir(), FleetConfig{Seed: 3}); return err }},
		{"edge", 2, 2, false, false, func() error { _, err := RunEdgeAdversary(EdgeConfig{Seed: 3}); return err }},
		{"crash", 2, 0, true, false, func() error { _, err := RunCrashRecovery(t.TempDir(), CrashConfig{Seed: 3}); return err }},
		{"durable fleet", 3, 1, false, true, func() error { durableWorld(t, 2, 4, 1); return nil }},
	} {
		lives = nil
		if err := sc.run(); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		var ring *fleet.Ring
		coordinators, coordinator := 0, ""
		for _, l := range lives {
			if l.Hub != nil {
				coordinators, coordinator = coordinators+1, l.addr
			} else if ring == nil {
				ring = l.Ring
			}
		}
		if coordinators > 1 || (coordinators == 1) != sc.coordinated {
			t.Errorf("%s: %d coordinator lives, want one: %v", sc.name, coordinators, sc.coordinated)
		}
		listening, withTickets := 0, 0
		for _, l := range lives {
			if l.Hub != nil {
				if l.NodeID != 0 || l.Ring != nil || l.Coordinator != "" || !l.listening || l.addr == "" {
					t.Errorf("%s: coordinator is node %d on ring %p shipping to %q, listening %v at %q; want glimmerd -coordinator self",
						sc.name, l.NodeID, l.Ring, l.Coordinator, l.listening, l.addr)
				}
			} else if ring == nil || l.Ring != ring || !slices.Contains(ring.Nodes(), l.NodeID) {
				t.Errorf("%s: node %d started on ring %p, want its world's ring %p, which names it", sc.name, l.NodeID, l.Ring, ring)
				continue
			} else if l.Coordinator != coordinator {
				t.Errorf("%s: node %d ships to %q, want its world's coordinator %q", sc.name, l.NodeID, l.Coordinator, coordinator)
			}
			if l.WAL != (durable.Config{}) && l.WAL != seam {
				t.Errorf("%s: node %d runs its WAL at %+v, want durable's defaults or %+v", sc.name, l.NodeID, l.WAL, seam)
			}
			for _, h := range l.hosted {
				for round := uint64(1); round <= 64; round++ {
					want := l.Ring == nil || ring.Owner([]byte(h.Name), round) == l.NodeID
					if got := h.Owns == nil || h.Owns(round); got != want || (h.Owns == nil) != (l.Ring == nil) {
						t.Fatalf("%s: node %d's tenant %s owns round %d = %v (placed: %v), its ring says %v",
							sc.name, l.NodeID, h.Name, round, got, h.Owns != nil, want)
					}
				}
				ttl := int64(0)
				if h.TicketPolicy != nil {
					ttl, withTickets = service.DefaultTicketTTL, withTickets+1
					if h.TicketPolicy.Now == nil {
						t.Errorf("%s: tenant %s reads the wall clock", sc.name, h.Name)
					}
				}
				want := glimnode.Hosting(ttl)
				got := h
				got.Name, got.Verify, got.Dim, got.Vetted, got.Glimmer, got.Provision = "", nil, 0, nil, glimmer.Config{}, nil
				got.Owns = nil
				if got.TicketPolicy != nil {
					policy := *got.TicketPolicy
					policy.Now = nil
					got.TicketPolicy = &policy
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: tenant %s hosted as %s, node.Hosting gives %s", sc.name, h.Name, admission(got), admission(want))
				}
			}
			if !l.listening {
				continue
			}
			listening++
			got, want := l.Edge, glimnode.DefaultEdge()
			got.Platform, got.TLS = nil, nil
			if sc.name == "edge" {
				got.ReadTimeout, got.MaxConns = want.ReadTimeout, want.MaxConns
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: a node serves %s, node.DefaultEdge gives %s", sc.name, governance(got), governance(want))
			}
		}
		if len(lives) < sc.lives || listening < sc.listening {
			t.Errorf("%s: %d node lives seen, %d listening, want at least %d and %d", sc.name, len(lives), listening, sc.lives, sc.listening)
		}
		if (withTickets > 0) != sc.ticketed {
			t.Errorf("%s: %d tenants hosted on the ticketed path, want some: %v", sc.name, withTickets, sc.ticketed)
		}
	}
}

// governance renders e's deadlines and caps.
func governance(e gaas.ServerConfig) string {
	return fmt.Sprintf("{read=%v write=%v idle=%v max-conns=%d per-ip=%d inflight-batches=%d}",
		e.ReadTimeout, e.WriteTimeout, e.IdleTimeout, e.MaxConns, e.MaxConnsPerIP, e.MaxInflightBatches)
}

// admission renders h's admission and ticket fields.
func admission(h service.TenantConfig) string {
	s := fmt.Sprintf("{workers=%d max-rounds=%d round-window=%d evict-at-cap=%v}", h.Workers, h.MaxRounds, h.RoundWindow, h.EvictAtCap)
	if h.TicketPolicy != nil {
		s += fmt.Sprintf(" tickets %+v", *h.TicketPolicy)
	}
	return s
}
