package sim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"glimmers/internal/gaas"
	glimnode "glimmers/internal/node"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

// Malicious-edge scenario: a governed TLS front end is attacked at the
// transport layer — the one layer the §4.2 host model says an adversary
// fully controls — while an honest fleet tries to finish a round through
// it. Three attacks run against one server:
//
//   - conn-flood: more connections than MaxConns admits. The surplus must
//     be refused with a shed reply (not a hang), the refusals must land in
//     the edge counters, and the already-admitted honest lanes must keep
//     their slots.
//   - slowloris: connections that start a frame and then trickle, trying
//     to pin enclave slots forever. ReadTimeout must reap them while the
//     idle-but-honest lanes survive.
//   - swapped measurement: a second, genuinely attested edge serving the
//     same service name from a different enclave binary. The fleet's
//     known-hosts pin from first use must refuse it before any private
//     data moves.
//
// The scenario's verdict is the paper's: none of this moves the tenant's
// exact sum. The round seals to precisely the honest fleet's total, with
// every adversarial action accounted for in the right counter.
type EdgeConfig struct {
	Seed    int64
	Devices int
	Dim     int
	// Lanes is the honest fleet's connection count (default 3).
	Lanes int
	// FloodConns is the conn-flood size (default 8). The server's
	// MaxConns is Lanes+SlowlorisConns, so the flood both fills the spare
	// slots and overflows them.
	FloodConns int
	// SlowlorisConns is the number of trickling connections (default 3).
	SlowlorisConns int
}

func (c EdgeConfig) withDefaults() EdgeConfig {
	c.Devices = positiveOr(c.Devices, 6)
	c.Dim = positiveOr(c.Dim, 4)
	c.Lanes = positiveOr(c.Lanes, 3)
	c.FloodConns = positiveOr(c.FloodConns, 8)
	c.SlowlorisConns = positiveOr(c.SlowlorisConns, 3)
	return c
}

// EdgeReport is the observable outcome of one malicious-edge run.
type EdgeReport struct {
	// PinnedOnFirstUse records that the fleet's first connection pinned
	// the honest edge's measurement.
	PinnedOnFirstUse bool
	// FloodAdmitted/FloodRefused partition the flood: the spare slots
	// admit, the overflow is refused with ErrShed.
	FloodAdmitted int
	FloodRefused  int
	// SlowlorisReaped records that every trickling connection was
	// reclaimed while the honest lanes stayed connected.
	SlowlorisReaped bool
	// SwappedRefused records that the genuinely attested impostor edge
	// was refused by the known-hosts pin.
	SwappedRefused bool

	RoundExact bool // the round sealed to the honest fleet's exact sum
	FinalCount int

	// Edge is the server's final governance counters.
	Edge gaas.EdgeStats

	// Violations lists every invariant break; empty means the edge held.
	Violations []string
}

const edgeServiceName = "edge.example"

// edgeHosting is the tenant shape both edges register (the impostor reuses
// it with a different enclave config).
var edgeHosting = service.TenantConfig{Workers: 2, Shards: 2, ExpectedCohort: 16, MaxRounds: 4, RoundWindow: 4}

// edgeNode is a governed TLS edge admitting maxConns connections.
func edgeNode(id uint32, maxConns int) nodeSpec {
	return nodeSpec{transport: TransportTLS, Config: glimnode.Config{NodeID: id, MaxTotalRounds: 8, Edge: gaas.ServerConfig{
		ReadTimeout:  250 * time.Millisecond, // what reaps a slowloris
		WriteTimeout: 2 * time.Second,
		// Generous: the honest lanes idle through the attack phases and
		// must not be reaped. Slowloris is ReadTimeout's job — a started
		// frame, not an idle connection.
		IdleTimeout: 30 * time.Second,
		MaxConns:    maxConns,
	}}}
}

// edgeClients is the honest fleet's client side: the lanes it holds
// through the attacks and the trust state they share.
type edgeClients struct {
	meas tee.Measurement
	// verifier checks genuineness only; pinning is the known-hosts store's
	// job, shared across the fleet like a provisioned config.
	verifier *tee.QuoteVerifier
	known    *gaas.KnownHosts
	dialCfg  gaas.DialConfig
	lanes    []*gaas.Client
}

// edgeDial is the client configuration every connection to an edge shares.
func edgeDial(callTimeout time.Duration) gaas.DialConfig {
	return gaas.DialConfig{
		TLS:              gaas.InsecureClientTLS(),
		DialTimeout:      5 * time.Second,
		HandshakeTimeout: 5 * time.Second,
		CallTimeout:      callTimeout,
	}
}

// pollActiveConns waits for the server's active-connection count to drop
// to want.
func pollActiveConns(server *gaas.Server, want int, deadline time.Duration) bool {
	for end := time.Now().Add(deadline); server.Stats().ActiveConns != want; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// RunEdgeAdversary drives the malicious-edge scenario. Setup failures
// return an error; invariant breaks are booked in the report's
// Violations.
func RunEdgeAdversary(cfg EdgeConfig) (*EdgeReport, error) {
	cfg = cfg.withDefaults()
	// The honest edge: capacity for the fleet's lanes plus exactly the
	// slowloris pool, so the flood overflows and the slowloris conns all
	// get slots to trickle in.
	s, err := build(
		tenantSpec{name: edgeServiceName, seed: cfg.Seed, devices: cfg.Devices, dim: cfg.Dim, rounds: []uint64{1}, hosting: edgeHosting},
		edgeNode(1, cfg.Lanes+cfg.SlowlorisConns))
	if err != nil {
		return nil, err
	}
	defer s.shutdown()
	rep := &EdgeReport{}
	fleet := &edgeClients{known: gaas.NewKnownHosts()}
	defer func() {
		for _, c := range fleet.lanes {
			_ = c.Close()
		}
	}()

	err = s.play(inRound(1,
		connectLanes(rep, fleet, cfg.Lanes),
		connFlood(rep, cfg.FloodConns, cfg.SlowlorisConns, cfg.Lanes),
		slowloris(rep, cfg.SlowlorisConns, cfg.Lanes),
		impostorEdge(rep, fleet),
		// ----- Through all of that, the honest fleet finishes its round
		// on the lanes it has held the whole time.
		func(s *script) error {
			for d := 0; d < cfg.Devices; d++ {
				raw, err := s.raw(d)
				if err != nil {
					return err
				}
				accepted, _, err := fleet.lanes[d%cfg.Lanes].SubmitBatch([][]byte{raw})
				if err != nil {
					s.violate("device %d submit: %v", d, err)
				} else if accepted != 1 {
					s.violate("device %d submit accepted %d, want 1", d, accepted)
				}
			}
			return nil
		},
		seal(owner),
		func(s *script) error {
			rep.FinalCount, rep.RoundExact = s.sealedExact(owner)
			// Exact accounting: the round itself saw zero rejections (no
			// adversarial bytes ever parsed as a contribution); the
			// admitted flood's garbage was refused at the registry, one
			// count per frame; the edge counters hold the flood overflow
			// and nothing else.
			n := s.at(owner)
			s.reconcile("edge", n.ledger(n.manager(s.t)), refusals{tenant: 0, manager: 0, registry: rep.FloodAdmitted})
			rep.Edge = n.Server().Stats()
			if rep.Edge.RefusedMaxConns != int64(rep.FloodRefused) {
				s.violate("final RefusedMaxConns = %d, want %d", rep.Edge.RefusedMaxConns, rep.FloodRefused)
			}
			if rep.Edge.RefusedPerIP != 0 || rep.Edge.ShedBatches != 0 {
				s.violate("unexpected edge refusals: %+v", rep.Edge)
			}
			return nil
		}))
	rep.Violations = s.violations
	return rep, err
}

// connectLanes dials the honest fleet's lanes, which connect before any
// attack and TOFU-pin the edge on first use.
func connectLanes(rep *EdgeReport, f *edgeClients, lanes int) step {
	return func(s *script) (err error) {
		n := s.at(owner)
		if f.meas, err = n.Server().MeasurementFor(s.t.name); err != nil {
			return fmt.Errorf("sim: edge measurement: %w", err)
		}
		f.verifier = &tee.QuoteVerifier{Root: n.sub.as.Root()}
		f.verifier.Allow(f.meas)
		f.dialCfg = edgeDial(10 * time.Second)
		f.dialCfg.Service, f.dialCfg.Verifier, f.dialCfg.KnownHosts = s.t.name, f.verifier, f.known
		for i := 0; i < lanes; i++ {
			c, err := gaas.DialContext(context.Background(), n.addr, f.dialCfg)
			if err != nil {
				return fmt.Errorf("sim: lane %d: %w", i, err)
			}
			f.lanes = append(f.lanes, c)
		}
		pinned, ok := f.known.Lookup(s.t.name)
		rep.PinnedOnFirstUse = ok && pinned == f.meas && f.known.Len() == 1
		if !rep.PinnedOnFirstUse {
			s.violate("first use did not pin the edge measurement")
		}
		return nil
	}
}

// connFlood opens conns sessionless connections against the owner's edge,
// each pushing a garbage batch. The spare slots admit (and the garbage is
// refused at the registry, not the edge); the overflow is shed with a
// typed reply.
func connFlood(rep *EdgeReport, conns, spare, lanes int) step {
	return func(s *script) error {
		server := s.at(owner).Server()
		floodCfg := edgeDial(5 * time.Second)
		floodCfg.NoSession = true
		garbage := [][]byte{[]byte("edge-flood: not a contribution")}
		var admitted []*gaas.Client
		for i := 0; i < conns; i++ {
			c, err := gaas.DialContext(context.Background(), s.at(owner).addr, floodCfg)
			if err != nil {
				s.violate("flood conn %d failed to dial: %v", i, err)
				continue
			}
			accepted, _, err := c.SubmitBatch(garbage)
			switch {
			case errors.Is(err, gaas.ErrShed):
				rep.FloodRefused++
				_ = c.Close()
			case err == nil && accepted == 0:
				rep.FloodAdmitted++
				admitted = append(admitted, c)
			default:
				s.violate("flood conn %d: accepted=%d err=%v", i, accepted, err)
				_ = c.Close()
			}
		}
		s.expectCount("flood conns admitted", rep.FloodAdmitted, spare)
		s.expectCount("flood conns refused", rep.FloodRefused, conns-spare)
		s.expectCount("RefusedMaxConns", int(server.Stats().RefusedMaxConns), rep.FloodRefused)
		for _, c := range admitted {
			_ = c.Close()
		}
		if !pollActiveConns(server, lanes, 5*time.Second) {
			s.violate("flood conns not released: %d active, want %d", server.Stats().ActiveConns, lanes)
		}
		return nil
	}
}

// slowloris starts a frame on conns connections (every spare slot) and
// trickles one byte at a time. The read deadline is armed when the frame
// starts and is not extended by progress, so the trickle cannot help.
func slowloris(rep *EdgeReport, conns, lanes int) step {
	return func(s *script) error {
		n := s.at(owner)
		done := make(chan struct{})
		var slow []net.Conn
		for i := 0; i < conns; i++ {
			tc, err := n.dial()
			if err != nil {
				s.violate("slowloris conn %d dial: %v", i, err)
				continue
			}
			slow = append(slow, tc)
			if _, err := tc.Write([]byte{0, 0, 0, 64}); err != nil {
				s.violate("slowloris conn %d prefix: %v", i, err)
				continue
			}
			go func(c net.Conn) {
				for {
					select {
					case <-done:
						return
					case <-time.After(50 * time.Millisecond):
					}
					if _, err := c.Write([]byte{0xAA}); err != nil {
						return // reaped
					}
				}
			}(tc)
		}
		rep.SlowlorisReaped = pollActiveConns(n.Server(), lanes, 5*time.Second)
		if !rep.SlowlorisReaped {
			s.violate("slowloris conns not reaped: %d active, want %d", n.Server().Stats().ActiveConns, lanes)
		}
		close(done)
		for _, c := range slow {
			_ = c.Close()
		}
		return nil
	}
}

// impostorEdge stands up the swapped-measurement edge, genuinely attested
// on the same platform. Its measurement is even on the verifier's
// allowlist — the host could have talked some authority into vetting it.
// Only the fleet's first-use pin stands between it and the session.
func impostorEdge(rep *EdgeReport, f *edgeClients) step {
	return func(s *script) error {
		sub := s.at(owner).sub
		evilTenant, err := sub.provision(tenantSpec{name: s.t.name, dim: s.t.dim + 1, hosting: edgeHosting})
		if err != nil {
			return fmt.Errorf("sim: impostor: %w", err)
		}
		evil, err := sub.start(edgeNode(2, 0), evilTenant)
		if err != nil {
			return fmt.Errorf("sim: impostor: %w", err)
		}
		defer evil.shutdown()
		evilMeas, err := evil.Server().MeasurementFor(s.t.name)
		if err != nil {
			return fmt.Errorf("sim: impostor measurement: %w", err)
		}
		if evilMeas == f.meas {
			s.violate("impostor enclave measures identically; scenario degenerate")
		}
		f.verifier.Allow(evilMeas)
		if _, err := gaas.DialContext(context.Background(), evil.addr, f.dialCfg); errors.Is(err, gaas.ErrMeasurementMismatch) {
			rep.SwappedRefused = true
		} else {
			s.violate("impostor edge dial returned %v, want ErrMeasurementMismatch", err)
		}
		if got, _ := f.known.Lookup(s.t.name); got != f.meas {
			s.violate("impostor dial disturbed the known-hosts pin")
		}
		return nil
	}
}
