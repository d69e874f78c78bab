package sim

import (
	"cmp"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	glimnode "glimmers/internal/node"
	"glimmers/internal/service"
	"glimmers/internal/testbed"
)

// The simulator kernel: the one world builder every scenario in this
// package is assembled by — scripted and plan-driven alike — and the one
// checker it is judged by.
//
//	substrate  attestation root + platform (internal/testbed)
//	tenant     a service, its predicate and keys, and its provisioned fleet
//	           blinded by its dealer enclave for a stated round set
//	           (internal/testbed), hosted as glimmerd hosts it (hosting)
//	node       one glimmerd process: a Registry hosting every tenant of the
//	           world from its start, optionally a durable.Store under it,
//	           a gaas edge in front of it and a fleet role — a ring node
//	           that ships at drain, or the coordinator it ships to
//	checker    the violations list and the recurring assertions
//
// The pieces are the product's own, in the cmd/glimmerd topology; nothing
// is mocked. Scenarios differ only in the specs they hand the builder and
// the steps (steps.go) they play against the result.

// simClock is a ticketed tenant's injected clock, started at a
// deterministic epoch: wall time never enters a simulation.
func simClock() *atomic.Int64 {
	clock := new(atomic.Int64)
	clock.Store(1_700_000_000)
	return clock
}

// hosting is node.Hosting as glimmerd applies it: the default ticket TTL
// for a ticketed tenant (one with a clock), -ticket-ttl 0 for the rest.
// The sim's one seam is that clock.
func hosting(clock *atomic.Int64) service.TenantConfig {
	if clock == nil {
		return glimnode.Hosting(0)
	}
	h := glimnode.Hosting(service.DefaultTicketTTL)
	h.TicketPolicy.Now = clock.Load
	return h
}

// nodeSpec describes one glimmerd process as the node.Config it ships
// with — ring identity or coordinator hub, state directory and WAL tuning
// (set: a durable node), the edge (node.DefaultEdge on a node that
// listens), and the tenants it hosts — plus the transport that fronts it
// (TransportDirect: no edge). build fills in Tenants, and Ring and
// Coordinator on a ring node; startNode Listener, Edge.Platform and
// Edge.TLS. The spec outlives the process: a crashed or drained node
// restarts from the same one, tenants, ring and coordinator included. It
// holds no key: node.Start gives a sim node its sealing key as it gives
// glimmerd's, from the state directory, so a restarted node re-signs with
// the key its TOFU pin expects only because that key survived on disk.
type nodeSpec struct {
	glimnode.Config
	transport TransportKind
}

// node is one life of a glimmerd process: the shipped assembly
// (internal/node) started from the spec, plus the client side of whatever
// listener the sim handed it.
type node struct {
	nodeSpec
	sub *testbed.Substrate
	*glimnode.Node
	addr string
	dial func() (net.Conn, error)
}

// startNode runs one node life on sub through node.Start — glimmerd's
// start sequence: config-file reconstruction (a fresh registry hosting the
// spec's tenants), durable recovery, then the serving edge.
func startNode(sub *testbed.Substrate, spec nodeSpec) (*node, error) {
	n := &node{nodeSpec: spec, sub: sub}
	cfg := spec.Config
	cfg.Edge.Platform = sub.Platform
	if spec.transport != TransportDirect {
		if err := n.listen(&cfg); err != nil {
			return nil, err
		}
	}
	var err error
	if n.Node, err = glimnode.Start(cfg); err != nil {
		return nil, fmt.Errorf("sim: node %d: %w", spec.NodeID, err)
	}
	started(n)
	return n, nil
}

// started sees every node life the sim starts (a test's hook).
var started = func(*node) {}

// listen opens the node's listener and the raw dialer the slowloris probe
// reaches it by: loopback TCP, or TLS-wrapped loopback TCP.
func (n *node) listen(cfg *glimnode.Config) error {
	switch n.transport {
	case TransportTCP, TransportTLS: // TCP and TLS share the loopback socket
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("sim: listen: %w", err)
		}
		addr := ln.Addr().String()
		cfg.Listener, n.addr = ln, addr
		n.dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
		if n.transport == TransportTLS {
			if cfg.Edge.TLS, err = gaas.SelfSignedServerTLS("127.0.0.1"); err != nil {
				_ = ln.Close()
				return fmt.Errorf("sim: edge TLS: %w", err)
			}
			// Transport privacy only; endpoint trust stays with the
			// attested handshake clients run over each connection.
			clientTLS := gaas.InsecureClientTLS()
			n.dial = func() (net.Conn, error) { return tls.Dial("tcp", addr, clientTLS) }
		}
	default:
		return fmt.Errorf("sim: unknown transport %v", n.transport)
	}
	return nil
}

// manager returns the round manager of a tenant this node hosts.
func (n *node) manager(t *testbed.Tenant) *service.RoundManager {
	hosted, _ := n.Registry().Tenant(t.Name)
	return hosted.Manager()
}

// shutdown is the clean stop, glimmerd's drain: the edge settles, open
// rounds seal, the store snapshots and closes.
func (n *node) shutdown() { _, _ = n.Drain() }

// kill ends the node's life the way a crash would (node.Kill: the store
// abandoned unflushed, nothing of the dead life left behind). With
// tornTail the dying process's final write is a partial frame appended to
// the live WAL, the numerically highest generation — a sim fault, not
// something the assembly does.
func (n *node) kill(tornTail bool) error {
	n.Kill()
	if !tornTail {
		return nil
	}
	wals, _ := filepath.Glob(filepath.Join(n.StateDir, "wal.*"))
	if len(wals) == 0 {
		return fmt.Errorf("sim: no WAL file in %s", n.StateDir)
	}
	// Shorter names first, so wal.10 sorts after wal.9.
	slices.SortFunc(wals, func(a, b string) int { return cmp.Or(cmp.Compare(len(a), len(b)), strings.Compare(a, b)) })
	f, err := os.OpenFile(wals[len(wals)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xDE, 0xAD, 0xBE})
	return errors.Join(err, f.Close())
}

// refusals is one tenant's refusal ledger on one node, over the three
// counters a refused submission can land in: the pipeline of the round it
// named, the tenant's round manager (the round was never admitted), or the
// shared registry (it never routed to a tenant). tenant is the pipeline-
// plus manager-level total, manager the manager-level part of it.
type refusals struct {
	tenant, manager, registry int
}

// unchecked marks a ledger field some other reconciliation owns: the
// manager/pipeline split on tally-only transports (which report that a
// batch item was refused, not where), or the registry counter several
// tenants share.
const unchecked = -1

// ledger reads the refusal counters for the tenant m manages on this node.
func (n *node) ledger(m *service.RoundManager) refusals {
	r := refusals{manager: m.Rejected(), registry: n.Registry().Rejected()}
	r.tenant = r.manager
	for _, round := range m.Rounds() {
		if p, ok := m.Lookup(round); ok {
			r.tenant += p.Rejected()
		}
	}
	return r
}

// checker owns a run's violations list and the assertions every scenario
// repeats. A setup failure is a Go error; an invariant the system under
// test broke is a violation, and the run carries on to find the rest.
type checker struct {
	lock       sync.Mutex
	violations []string
}

func (c *checker) violate(format string, args ...any) {
	c.lock.Lock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
	c.lock.Unlock()
}

// expectAccept submits raw to the node's registry, which must accept it.
func (c *checker) expectAccept(n *node, raw []byte, what string) {
	if err := n.Registry().Ingest(raw); err != nil {
		c.violate("%s refused at node %d: %v", what, n.NodeID, err)
	}
}

// expectRefuse submits raw to the node's registry, which must refuse it
// with want (nil: any refusal will do, acceptance is the bug). It reports
// whether the refusal was the expected one.
func (c *checker) expectRefuse(n *node, raw []byte, want error, what string) bool {
	err := n.Registry().Ingest(raw)
	switch {
	case err == nil:
		c.violate("%s was accepted at node %d", what, n.NodeID)
	case want != nil && !errors.Is(err, want):
		c.violate("%s at node %d returned %v, want %v", what, n.NodeID, err, want)
	default:
		return true
	}
	return false
}

// expectExact demands that a sealed or merged sum equal the exact expected
// sum, bit for bit.
func (c *checker) expectExact(what string, got, want fixed.Vector) bool {
	exact := slices.Equal(got, want)
	if !exact {
		c.violate("%s differs from the exact sum of the accepted contributions", what)
	}
	return exact
}

func (c *checker) expectCount(what string, got, want int) {
	if got != want {
		c.violate("%s = %d, want %d", what, got, want)
	}
}

// reconcile is the refusal reconciliation: every refusal a scenario caused
// must be counted exactly once, in the counter it belongs to, and nothing
// else may have been refused.
func (c *checker) reconcile(who string, got, want refusals) {
	if want.tenant != unchecked {
		c.expectCount(who+": manager+pipeline rejections", got.tenant, want.tenant)
	}
	if want.manager != unchecked {
		c.expectCount(who+": manager rejections", got.manager, want.manager)
	}
	if want.registry != unchecked {
		c.expectCount(who+": registry rejections", got.registry, want.registry)
	}
}
