package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"glimmers/internal/glimmer"
	"glimmers/internal/service"
)

// MultiScenario drives several tenants — typically a mix of range
// aggregation and the botdetect workload — through one shared hosting
// stack concurrently: one registry, one shared round budget, one gaas
// front end (for the TCP/TLS transports), with every tenant's traffic
// interleaving through the same frame-level routing the production daemon
// uses. Each tenant runs its own seeded fault plan; on top of the
// per-tenant invariants (exact sums, exact rejection accounting) the multi
// run enforces the cross-tenant isolation invariants:
//
//   - no contribution is ever counted in another tenant's sums: every
//     tenant's sealed aggregates remain exact despite the other tenants'
//     concurrent traffic and faults;
//   - routing-level refusals (unroutable garbage, unknown tenants) are
//     accounted exactly by the shared registry counter;
//   - deliberate cross-tenant probes after the runs — a replay of one
//     tenant's accepted contribution, the same contribution re-encoded
//     under another tenant's name, and a contribution naming a tenant
//     that does not exist — are all refused, land in exactly the expected
//     counter, and move no tenant's sums or counts.
//
// Determinism: each tenant's trace is a pure function of its own seed
// (stragglers aside), because isolation holds — that per-tenant traces
// survive concurrent co-tenants unchanged is itself part of what the
// scenario verifies.
type MultiScenario struct {
	Name string
	// Tenants are the per-tenant workloads. Empty ServiceNames are
	// assigned tenant<i>.glimmers.example; names must be distinct. A zero
	// Seed gets a distinct per-tenant default.
	Tenants []Config
	// Transport applies to every tenant (per-tenant Transport fields are
	// overridden): all lanes share one stack.
	Transport TransportKind
	// TotalRoundBudget sizes the registry's shared budget (0 = generous:
	// the sum of every tenant's quota).
	TotalRoundBudget int
}

// MultiReport is the outcome of one multi-tenant run.
type MultiReport struct {
	Scenario string
	// Reports holds each tenant's report, in Tenants order.
	Reports []*Report
	// RegistryRejected is the shared registry's routing-refusal count at
	// the end of the run (including the cross-tenant probes).
	RegistryRejected int
	Elapsed          time.Duration
	// Violations lists cross-tenant invariant breaches; per-tenant
	// breaches live in the tenant reports.
	Violations []string
}

// Ok reports whether every invariant — per-tenant and cross-tenant — held.
func (r *MultiReport) Ok() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, rep := range r.Reports {
		if !rep.Ok() {
			return false
		}
	}
	return true
}

// Summary is a one-line human summary.
func (r *MultiReport) Summary() string {
	parts := make([]string, len(r.Reports))
	for i, rep := range r.Reports {
		parts[i] = rep.Summary()
	}
	status := "OK"
	if !r.Ok() {
		status = "VIOLATIONS"
	}
	return fmt.Sprintf("%s: %d tenants %s\n  %s", r.Scenario, len(r.Reports), status, strings.Join(parts, "\n  "))
}

// Run executes the multi-tenant scenario.
func (s MultiScenario) Run() (*MultiReport, error) {
	if len(s.Tenants) == 0 {
		return nil, errors.New("sim: multi-tenant scenario without tenants")
	}
	cfgs := make([]Config, len(s.Tenants))
	budget := s.TotalRoundBudget
	names := make(map[string]bool, len(s.Tenants))
	for i, tcfg := range s.Tenants {
		tcfg.Transport = s.Transport
		if tcfg.ServiceName == "" {
			tcfg.ServiceName = fmt.Sprintf("tenant%d.glimmers.example", i)
		}
		if tcfg.Seed == 0 {
			tcfg.Seed = int64(1009 + 7919*i)
		}
		cfg, err := tcfg.withDefaults()
		if err != nil {
			return nil, err
		}
		if names[cfg.ServiceName] {
			return nil, fmt.Errorf("sim: duplicate tenant name %q", cfg.ServiceName)
		}
		names[cfg.ServiceName] = true
		cfgs[i] = cfg
		if s.TotalRoundBudget == 0 {
			budget += cfg.Rounds + 16
		}
	}

	start := time.Now()
	st, err := newStack(s.Transport, budget)
	if err != nil {
		return nil, err
	}
	defer st.shutdown()

	sims := make([]*simulation, len(cfgs))
	for i, cfg := range cfgs {
		sim, err := newSimulation(cfg.ServiceName, cfg, st)
		if err != nil {
			return nil, err
		}
		defer sim.shutdown()
		sims[i] = sim
	}

	// All tenants run concurrently: their batches interleave through the
	// shared registry (and, over TCP/TLS, the shared front end).
	rep := &MultiReport{Scenario: s.Name, Reports: make([]*Report, len(sims))}
	var wg sync.WaitGroup
	errs := make([]error, len(sims))
	for i, sim := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.Reports[i], errs[i] = sim.run()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	// Routing accounting: the shared registry counter must equal exactly
	// the unroutable traffic every tenant injected.
	cross := new(checker)
	wantRouting := 0
	for _, sim := range sims {
		wantRouting += sim.observedRoutingRejects
	}
	cross.reconcile("routing accounting", refusals{registry: st.Registry().Rejected()},
		refusals{tenant: unchecked, manager: unchecked, registry: wantRouting})

	probeIsolation(cross, st, sims)

	rep.RegistryRejected = st.Registry().Rejected()
	rep.Elapsed = time.Since(start)
	rep.Violations = cross.violations
	return rep, nil
}

// tenantSnapshot is one tenant's externally observable aggregation state.
type tenantSnapshot struct {
	counts  map[uint64]int
	digests map[uint64]string
	ledger  refusals
}

func snapshotTenant(s *simulation) tenantSnapshot {
	snap := tenantSnapshot{
		counts:  make(map[uint64]int),
		digests: make(map[uint64]string),
		ledger:  s.st.ledger(s.manager),
	}
	for _, r := range s.manager.Rounds() {
		if p, ok := s.manager.Lookup(r); ok {
			snap.counts[r] = p.Count()
			snap.digests[r] = p.Sum().Digest()
		}
	}
	return snap
}

// probeIsolation fires deliberate cross-tenant attacks after the runs and
// verifies each is refused, is booked in exactly the expected counter, and
// moves nothing else.
func probeIsolation(c *checker, st *node, sims []*simulation) {
	before := make([]tenantSnapshot, len(sims))
	// want[i] is tenant i's expected ledger after the probes: a refusal on
	// a round the victim has registered lands in that round's pipeline
	// counter; a refusal for a round the victim never ran (tenants may run
	// different round counts) lands in its manager counter.
	want := make([]refusals, len(sims))
	for i, sim := range sims {
		before[i] = snapshotTenant(sim)
		want[i] = before[i].ledger
	}
	wantRegistry := st.Registry().Rejected()

	for i, sim := range sims {
		name := sim.cfg.ServiceName
		round, raw := sim.acceptedSample()
		if raw == nil {
			c.violate("tenant %s: no accepted contribution to probe with", name)
			continue
		}
		// Probe 1: replay the tenant's own accepted contribution. It routes
		// home and the (closed) round must refuse it.
		c.expectRefuse(st, raw, service.ErrRoundClosed, "tenant "+name+": post-run replay")
		want[i].tenant++

		// Probe 2: the same contribution re-encoded under the next tenant's
		// name — frame-level routing must deliver it there and that tenant
		// must refuse it (the signature covers the name, so the splice can
		// never verify).
		if j := (i + 1) % len(sims); j != i {
			spliced, err := renameContribution(raw, sims[j].cfg.ServiceName)
			if err != nil {
				c.violate("tenant %s: splicing probe: %v", name, err)
			} else {
				_, roundKnown := sims[j].manager.Lookup(round)
				if c.expectRefuse(st, spliced, nil, "tenant "+name+": contribution spliced onto "+sims[j].cfg.ServiceName) {
					want[j].tenant++
					if !roundKnown {
						want[j].manager++
					}
				}
			}
		}

		// Probe 3: a contribution naming a tenant that does not exist must
		// be refused at the registry, touching no tenant.
		ghost, err := renameContribution(raw, "ghost.invalid")
		if err != nil {
			c.violate("tenant %s: ghost probe: %v", name, err)
			continue
		}
		c.expectRefuse(st, ghost, service.ErrUnknownTenant, "tenant "+name+": unknown-tenant probe")
		wantRegistry++
	}

	for i, sim := range sims {
		after := snapshotTenant(sim)
		name := sim.cfg.ServiceName
		want[i].registry = wantRegistry
		c.reconcile("tenant "+name+" after probes", after.ledger, want[i])
		for r, n := range before[i].counts {
			if after.counts[r] != n {
				c.violate("tenant %s round %d: count moved (%d -> %d) under probes", name, r, n, after.counts[r])
			}
			if after.digests[r] != before[i].digests[r] {
				c.violate("tenant %s round %d: aggregate moved under probes", name, r)
			}
		}
	}
}

// renameContribution re-encodes an accepted contribution under a different
// service name without re-signing (or re-MACing) — the cross-tenant
// forgery the authenticator's domain separation must make useless, on
// either wire variant.
func renameContribution(raw []byte, name string) ([]byte, error) {
	if glimmer.PeekContributionTicketed(raw) {
		tc, err := glimmer.DecodeTicketedContribution(raw)
		if err != nil {
			return nil, err
		}
		tc.ServiceName = name
		return glimmer.EncodeTicketedContribution(tc), nil
	}
	sc, err := glimmer.DecodeSignedContribution(raw)
	if err != nil {
		return nil, err
	}
	sc.ServiceName = name
	return glimmer.EncodeSignedContribution(sc), nil
}

// acceptedSample returns a deterministic accepted contribution (lowest
// round, then lowest device) retained from the run, for isolation probes.
func (s *simulation) acceptedSample() (uint64, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bestRound, bestDevice := uint64(0), 0
	var best []byte
	for r, rs := range s.rounds {
		for d, raw := range rs.accepted {
			if best == nil || r < bestRound || (r == bestRound && d < bestDevice) {
				bestRound, bestDevice, best = r, d, raw
			}
		}
	}
	return bestRound, best
}
