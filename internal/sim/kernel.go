package sim

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	glimnode "glimmers/internal/node"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

// The simulator kernel: the one world builder every scenario in this
// package is assembled by, and the one checker it is judged by.
//
//	substrate  attestation root + platform: what outlives every process
//	tenant     a service, its predicate and keys, and its provisioned fleet
//	           with dealer masks for a stated round set
//	node       one glimmerd process: a Registry hosting tenants, optionally
//	           a durable.Store under it and a gaas edge in front of it
//	checker    the violations list and the recurring assertions
//
// The pieces are the product's own, in the cmd/glimmerd topology; nothing
// is mocked. Scenarios differ only in the specs they hand the builder and
// the steps (steps.go) they play against the result.

// Ticketed-mode constants: a deterministic epoch for the injected ticket
// clock and the grant TTL the expiry probe advances past. Wall time never
// enters a simulation.
const (
	simTicketEpoch = int64(1_700_000_000)
	simTicketTTL   = int64(3600)
)

// substrate is the hardware and attestation root every tenant and node of
// a world shares.
type substrate struct {
	as       *tee.AttestationService
	platform *tee.Platform
}

func newSubstrate() (*substrate, error) {
	as, err := tee.NewAttestationService()
	if err != nil {
		return nil, fmt.Errorf("sim: attestation service: %w", err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		return nil, fmt.Errorf("sim: platform: %w", err)
	}
	return &substrate{as: as, platform: platform}, nil
}

// tenantSpec describes one tenant and its fleet.
type tenantSpec struct {
	name    string
	seed    int64
	devices int
	dim     int
	// predicate is what the tenant's Glimmers enforce; nil means the
	// paper's canonical [0,1] range check.
	predicate *predicate.Program
	// rounds is the set the dealer deals zero-sum masks for: every round a
	// device may name, bogus and probe rounds included.
	rounds []uint64
	// hosting is the template every node registers the tenant from
	// (pipeline sizing, admission quota, ticket policy). The kernel fills
	// in Name, Verify, Dim, the hosting enclave, and the ticket clock; a
	// non-nil TicketPolicy puts the fleet on the session-ticket fast path.
	hosting service.TenantConfig
}

// tenant is everything about a tenant that lives outside any server
// process, so no node crash erases it: its cloud service (keys and
// predicate — the operator's config), its provisioned Glimmer fleet (the
// remote clients), and the injected ticket clock.
type tenant struct {
	tenantSpec
	svc *service.Service
	// hostCfg is the tenant's hosting enclave (user sessions over gaas);
	// the sim's devices are local, so it is never provisioned, but its
	// measurement is what the tenant's clients pin.
	hostCfg glimmer.Config
	devs    []*glimmer.Device
	// masks[r][i] is device i's dealer mask for round r (real and bogus
	// rounds alike). The simulator plays the §3 trusted dealer, so it
	// legitimately knows every mask.
	masks map[uint64][]fixed.Vector
	// clock drives ticket expiry for ticketed tenants (nil otherwise): a
	// deterministic fake the expiry probe advances, so the trace stays a
	// pure function of the configuration.
	clock *atomic.Int64
}

// provision creates the tenant's service, deals each round's zero-sum
// masks, and loads and provisions one Glimmer device per simulated client.
func (sub *substrate) provision(spec tenantSpec) (*tenant, error) {
	svc, err := service.New(spec.name, sub.as.Root())
	if err != nil {
		return nil, fmt.Errorf("sim: service: %w", err)
	}
	pred := spec.predicate
	if pred == nil {
		pred = predicate.UnitRangeCheck("unit-range", spec.dim)
	}
	if err := svc.SetPredicate(pred); err != nil {
		return nil, fmt.Errorf("sim: predicate: %w", err)
	}
	t := &tenant{tenantSpec: spec, svc: svc, masks: make(map[uint64][]fixed.Vector, len(spec.rounds))}
	if t.hostCfg, err = svc.GlimmerConfig(spec.dim, glimmer.ModeNone, glimmer.DefaultPolicy); err != nil {
		return nil, err
	}
	if policy := spec.hosting.TicketPolicy; policy != nil {
		t.clock = new(atomic.Int64)
		t.clock.Store(simTicketEpoch)
		policy.Now = t.clock.Load
	}
	for _, round := range spec.rounds {
		seed := fmt.Appendf(nil, "sim/%s/%d/masks/%d", spec.name, spec.seed, round)
		if t.masks[round], err = blind.ZeroSumMasks(seed, spec.devices, spec.dim); err != nil {
			return nil, fmt.Errorf("sim: dealer masks for round %d: %w", round, err)
		}
	}
	glimCfg, err := svc.GlimmerConfig(spec.dim, glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		return nil, fmt.Errorf("sim: glimmer config: %w", err)
	}
	for i := 0; i < spec.devices; i++ {
		masks := make(map[uint64][]uint64, len(t.masks))
		for round, dealt := range t.masks {
			masks[round] = glimmer.VectorToBits(dealt[i])
		}
		dev, err := svc.NewDevice(sub.platform, glimCfg, masks)
		if err != nil {
			t.destroy()
			return nil, fmt.Errorf("sim: device %d: %w", i, err)
		}
		t.devs = append(t.devs, dev)
	}
	return t, nil
}

func (t *tenant) destroy() {
	for _, dev := range t.devs {
		dev.Destroy()
	}
}

// config is the tenant's registration on one server life — what glimmerd
// reconstructs from its config file on every start, before recovering any
// durable state — with the fleet's measurements vetted.
func (t *tenant) config() service.TenantConfig {
	cfg := t.hosting
	cfg.Name, cfg.Verify, cfg.Dim, cfg.Glimmer = t.name, t.svc.ContributionVerifyKey(), t.dim, t.hostCfg
	cfg.Vetted = make([]tee.Measurement, len(t.devs))
	for i, dev := range t.devs {
		cfg.Vetted[i] = dev.Measurement()
	}
	return cfg
}

// contribute runs device d's client-side pipeline in the tenant's
// authentication mode: the Glimmer validates and blinds either way, then
// seals with a signature or — on the ticketed fast path — the
// session MAC.
func (t *tenant) contribute(d int, round uint64, value fixed.Vector, private []int64) ([]byte, error) {
	if t.clock != nil {
		tc, err := t.devs[d].ContributeTicketed(round, value, private)
		if err != nil {
			return nil, err
		}
		return glimmer.EncodeTicketedContribution(tc), nil
	}
	sc, err := t.devs[d].Contribute(round, value, private)
	if err != nil {
		return nil, err
	}
	return glimmer.EncodeSignedContribution(sc), nil
}

// grantTicket runs device d's grant exchange for rounds [first, last]
// through grant (a registry directly, or the gaas ticket-grant command):
// the session's single asymmetric operation, after which every
// contribution rides the MAC fast path. Installing a ticket replaces the
// device's session.
func (t *tenant) grantTicket(d int, first, last uint64, grant func([]byte) ([]byte, error)) error {
	req, err := t.devs[d].TicketRequest(first, last)
	if err != nil {
		return fmt.Errorf("sim: device %d ticket request: %w", d, err)
	}
	reply, err := grant(req)
	if err != nil {
		return fmt.Errorf("sim: device %d ticket grant: %w", d, err)
	}
	if err := t.devs[d].InstallTicket(reply); err != nil {
		return fmt.Errorf("sim: device %d ticket install: %w", d, err)
	}
	return nil
}

// nodeSpec describes one glimmerd process as the node.Config it ships
// with — ring identity, shared round budget, state directory and WAL
// tuning (set: a durable node), edge governance limits, seal key — plus
// the transport that fronts it (TransportDirect: no edge). The kernel
// fills in Tenants, Listener, Edge.Platform and Edge.TLS. The spec
// outlives the process: a crashed node restarts from the same one, and
// the seal key models sealed key storage, which a crash does not erase —
// a restarted node re-signs with the key its TOFU pin expects.
type nodeSpec struct {
	glimnode.Config
	transport TransportKind
}

// node is one life of a glimmerd process: the shipped assembly
// (internal/node) started from the spec, plus the client side of whatever
// listener the sim handed it.
type node struct {
	nodeSpec
	sub *substrate
	*glimnode.Node
	addr string
	dial func() (net.Conn, error)
}

// start runs one node life through node.Start — glimmerd's start sequence:
// config-file reconstruction (a fresh registry hosting the given tenants),
// durable recovery, then the serving edge. A node with no store to recover
// may also be handed tenants later (Registry().AddTenant).
func (sub *substrate) start(spec nodeSpec, tenants ...*tenant) (*node, error) {
	n := &node{nodeSpec: spec, sub: sub}
	cfg := spec.Config
	cfg.Edge.Platform = sub.platform
	for _, t := range tenants {
		cfg.Tenants = append(cfg.Tenants, t.config())
	}
	if spec.transport != TransportDirect {
		if err := n.listen(&cfg); err != nil {
			return nil, err
		}
	}
	var err error
	if n.Node, err = glimnode.Start(cfg); err != nil {
		return nil, fmt.Errorf("sim: node %d: %w", spec.NodeID, err)
	}
	return n, nil
}

// listen opens the node's listener and the dialer that reaches it:
// loopback TCP, or TLS-wrapped loopback TCP.
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
func (n *node) manager(t *tenant) *service.RoundManager {
	hosted, _ := n.Registry().Tenant(t.name)
	return hosted.Manager()
}

// shutdown is the clean stop, glimmerd's drain: the edge settles, open
// rounds seal, the store snapshots and closes.
func (n *node) shutdown() { _, _ = n.Drain() }

// kill ends the node's life the way a crash would (node.Kill: the store
// abandoned unflushed, nothing of the dead life left behind). With
// tornTail the dying process's final write is a partial frame appended to
// the live WAL — a sim fault, not something the assembly does.
func (n *node) kill(tornTail bool) error {
	n.Kill()
	if !tornTail {
		return nil
	}
	wals, _ := filepath.Glob(filepath.Join(n.StateDir, "wal.*"))
	if len(wals) == 0 {
		return fmt.Errorf("sim: no WAL file in %s", n.StateDir)
	}
	f, err := os.OpenFile(wals[0], os.O_WRONLY|os.O_APPEND, 0o644)
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
