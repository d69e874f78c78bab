package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"glimmers/internal/botdetect"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/testbed"
)

// item is one planned submission with its expected outcome. For
// deterministic faults the expectation is exact; stragglers are resolved
// by observation (accepted and ErrRoundSealed are both legal).
type item struct {
	raw    []byte
	expect string
	// want is the refusal the service must name for a hostile item; nil
	// means any refusal will do (undecodable bytes), acceptance is the bug.
	want   error
	device int
	// value is the honest contribution carried by the raw bytes; it feeds
	// the expected exact sum when the submission is accepted.
	value fixed.Vector
}

// roundState is what the run has observed during one round's step.
type roundState struct {
	// tally counts outcomes (the cohort, its injections, and its
	// stragglers).
	tally Tally
	// sum accumulates the honest values of the accepted contributions —
	// the exact sum the sealed aggregate must equal.
	sum fixed.Vector
	// accepted[d] is device d's accepted encoded contribution, kept for
	// duplicate and replay injections.
	accepted map[int][]byte
	// lost marks devices whose straggling submission came after the seal;
	// their masks need dropout correction.
	lost map[int]bool
	// stragglers are generated at the round's step and released when the
	// round seals.
	stragglers []item
}

// Every simulation submits in batches of batchSize contributions over
// submitters concurrent lanes — parallel gaas connections or concurrent
// IngestBatch callers.
const (
	batchSize  = 16
	submitters = 4
)

// simulation is one tenant's seeded fault plan running against a node: a
// script (the tenant, the node, the checker) plus the plan and what its
// execution has observed so far.
type simulation struct {
	*script
	cfg  Config
	plan *plan
	// st is the node hosting the tenant (shared with its co-tenants),
	// manager the tenant's round manager on it, and pool the tenant's
	// submission lanes into it.
	st      *node
	manager *service.RoundManager
	pool    *transportPool
	// clock is what a ticketed tenant's ticket table reads time from (nil
	// otherwise): a deterministic fake the expiry probe advances, so the
	// trace stays a pure function of the configuration.
	clock *atomic.Int64

	mu     sync.Mutex
	rounds map[uint64]*roundState
	// observedRejects counts every tenant-level refusal the simulator
	// observed, to reconcile against manager+pipeline counters at the end.
	// observedRoutingRejects counts refusals that never reach a tenant
	// (unroutable garbage), which land in the shared registry counter.
	observedRejects        int
	observedRoutingRejects int
	reports                []RoundReport
}

// newSimulation plans cfg's run and returns it with the spec of the
// tenant it runs as, for build to provision and host.
func newSimulation(cfg Config) (*simulation, testbed.TenantSpec) {
	p := buildPlan(cfg)
	spec := testbed.TenantSpec{
		Name:    cfg.ServiceName,
		Seed:    cfg.Seed,
		Devices: cfg.Devices,
		Dim:     cfg.Dim,
	}
	if cfg.Workload == WorkloadBotdetect {
		spec.Predicate = botdetect.DefaultDetector.TenantPredicate("bot-tenant")
	}
	// Masks cover each planned round and the bogus rounds out-of-window
	// injections will name.
	for _, rp := range p.rounds {
		spec.Rounds = append(spec.Rounds, rp.round)
		if slices.ContainsFunc(rp.devices, func(dp devicePlan) bool { return dp.outOfWindow }) {
			spec.Rounds = append(spec.Rounds, rp.bogusRound)
		}
	}
	var clock *atomic.Int64
	if cfg.Ticketed {
		// The ticket probes contribute (and are refused) against one round
		// past the plan; the enclaves still need its dealer masks to blind.
		spec.Rounds = append(spec.Rounds, uint64(cfg.Rounds+1))
		// A per-tenant ticket table under an injected clock.
		clock = simClock()
	}
	// The ticket window covers the bogus rounds, so round admission refuses
	// them; the ticket window is probed with a deliberately tight grant.
	spec.Hosting = hosting(clock)
	return &simulation{cfg: cfg, plan: p, clock: clock, rounds: make(map[uint64]*roundState)}, spec
}

// open takes the tenant's script in the built world, whose one node hosts
// the tenant from its start, builds the tenant's submission lanes into
// that node — in-process registry calls, or gaas clients (each dialing
// the shared front end and naming this tenant in its hello) — and,
// ticketed, runs each device's grant exchange through them, over a
// window that covers the plan's bogus rounds.
func (s *simulation) open(sc *script) (err error) {
	s.script, s.st = sc, sc.nodes[simNodeID]
	s.manager = s.st.manager(s.t)
	if s.st.Server() == nil {
		s.pool = newDirectPool(s.st.Registry())
	} else {
		verifier := &tee.QuoteVerifier{Root: s.t.AS.Root()}
		verifier.Allow(s.t.Measurement())
		if s.pool, err = newGaasPool(s.st, verifier, s.t.Name); err != nil {
			return err
		}
	}
	if s.cfg.Ticketed {
		for d := range s.t.Devs {
			if err := s.t.GrantTicket(d, 1, 1+2*bogusRoundOffset, s.pool.grant); err != nil {
				return err
			}
		}
	}
	return nil
}

// close closes the tenant's submission lanes.
func (s *simulation) close() {
	if s.pool != nil {
		s.pool.close()
	}
}

// state returns round's observations, creating them (s.mu held).
func (s *simulation) state(round uint64) *roundState {
	rs, ok := s.rounds[round]
	if !ok {
		rs = &roundState{
			tally:    make(Tally),
			sum:      fixed.NewVector(s.cfg.Dim),
			accepted: make(map[int][]byte),
			lost:     make(map[int]bool),
		}
		s.rounds[round] = rs
	}
	return rs
}

func (s *simulation) tally(round uint64, cat string) {
	s.mu.Lock()
	s.state(round).tally[cat]++
	s.mu.Unlock()
}

// recordAccept books one accepted contribution: tally, expected sum, and
// the raw bytes later injections may duplicate or replay.
func (s *simulation) recordAccept(round uint64, it item, cat string) {
	s.mu.Lock()
	rs := s.state(round)
	rs.tally[cat]++
	rs.sum.AddInPlace(it.value)
	rs.accepted[it.device] = it.raw
	s.mu.Unlock()
}

func (s *simulation) recordReject(round uint64, cat string) {
	s.mu.Lock()
	s.state(round).tally[cat]++
	// Garbage never names a tenant (and the unknown-tenant probe names one
	// that does not exist), so those refusals are booked by the shared
	// registry rather than this tenant's manager; every other category is
	// routed into the tenant and refused there.
	if cat == CatRejectedGarbage || cat == CatRejectedUnknownTenant {
		s.observedRoutingRejects++
	} else {
		s.observedRejects++
	}
	s.mu.Unlock()
}

// run plays the plan as a scenario: for each step r, submit round r's
// cohort and injections, close round r-Overlap (verifying post-close
// immutability), and seal round r-Overlap+1 with its stragglers on the
// planned sides of the Seal; then drain the remaining open rounds, fire
// the ticket probes, and reconcile the global rejection accounting.
func (s *simulation) run() (*Report, error) {
	start := time.Now()
	overlap := s.cfg.Overlap
	var scenario []step
	for r := 1; r <= s.cfg.Rounds; r++ {
		scenario = append(scenario, s.submitRound(s.plan.rounds[r-1]))
		if c := r - overlap; c >= 1 {
			scenario = append(scenario, s.closeRound(uint64(c)))
		}
		if g := r - overlap + 1; g >= 1 {
			scenario = append(scenario, s.sealRound(uint64(g)))
		}
	}
	for g := s.cfg.Rounds - overlap + 2; g <= s.cfg.Rounds; g++ {
		scenario = append(scenario, s.closeRound(uint64(g-1)), s.sealRound(uint64(g)))
	}
	scenario = append(scenario, s.closeRound(uint64(s.cfg.Rounds)))
	if s.cfg.Ticketed {
		scenario = append(scenario, s.ticketProbes)
	}
	if err := s.play(append(scenario, s.reconcileRejections)...); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	totals := make(Tally)
	for _, rs := range s.rounds {
		for cat, n := range rs.tally {
			totals[cat] += n
		}
	}
	return &Report{
		Scenario:   s.cfg.ServiceName,
		Config:     s.cfg,
		Rounds:     s.reports,
		Totals:     totals,
		Elapsed:    elapsed,
		Transport:  s.cfg.Transport,
		Violations: s.violations,
	}, nil
}

// submitRound runs every device's client side for one planned round — the
// Glimmer validate→blind→sign pipeline for honest, byzantine, and
// straggling devices, plus the planned hostile injections — and ships it:
// the cohort first, then the injections that need the cohort accepted;
// stragglers are held back for the round's seal.
func (s *simulation) submitRound(rp roundPlan) step {
	return func(*script) error {
		// A corrupted submission is a flipped signature byte on the signed
		// path and a flipped MAC byte on the ticketed one; the service must
		// name the right refusal either way.
		corrupt := service.ErrBadSignature
		if s.cfg.Ticketed {
			corrupt = service.ErrBadMAC
		}
		var wave1, wave2, stragglers []item
		for d := range rp.devices {
			dp := &rp.devices[d]
			switch dp.role {
			case roleDropout:
				s.tally(rp.round, CatDropout)
				continue
			case roleByzantine:
				// The predicate must refuse the byzantine submission inside the
				// enclave — an out-of-range value for the range workload, a bot
				// session's features for botdetect; nothing reaches the service.
				val := dp.value
				if s.cfg.Workload == WorkloadRange {
					val = byzantineValue(dp.value)
				}
				if _, err := s.t.Contribute(d, rp.round, val, dp.private); !errors.Is(err, glimmer.ErrRejected) {
					s.violate("round %d device %d: byzantine contribution not refused client-side (err=%v)", rp.round, d, err)
				} else {
					s.tally(rp.round, CatClientRejected)
				}
				continue
			}
			raw, err := s.t.Contribute(d, rp.round, dp.value, dp.private)
			if err != nil {
				return fmt.Errorf("sim: round %d device %d contribute: %w", rp.round, d, err)
			}
			switch {
			case dp.role == roleCorruptSig:
				raw[len(raw)-1] ^= 0xFF // flip one signature byte in flight
				wave1 = append(wave1, item{raw: raw, expect: CatRejectedSig, want: corrupt, device: d})
			case dp.straggler:
				stragglers = append(stragglers, item{raw: raw, device: d, value: dp.value})
			default:
				wave1 = append(wave1, item{raw: raw, expect: CatAccepted, device: d, value: dp.value})
			}
			if dp.duplicate {
				wave2 = append(wave2, item{raw: raw, expect: CatRejectedDup, want: service.ErrDuplicate, device: d})
			}
			if dp.garbage != nil {
				wave2 = append(wave2, item{raw: dp.garbage, expect: CatRejectedGarbage, device: d})
			}
			if dp.outOfWindow {
				rawOOW, err := s.t.Contribute(d, rp.bogusRound, dp.value, dp.private)
				if err != nil {
					return fmt.Errorf("sim: round %d device %d out-of-window contribute: %w", rp.round, d, err)
				}
				wave2 = append(wave2, item{raw: rawOOW, expect: CatRejectedWindow, want: service.ErrRoundOutOfWindow, device: d})
			}
			if dp.replay {
				s.mu.Lock()
				prev := s.state(rp.round - uint64(s.cfg.Overlap)).accepted[d]
				s.mu.Unlock()
				if prev == nil {
					s.violate("round %d device %d: planned replay has no accepted source", rp.round, d)
				} else {
					wave2 = append(wave2, item{raw: prev, expect: CatRejectedReplay, want: service.ErrRoundSealed, device: d})
				}
			}
		}
		s.mu.Lock()
		s.state(rp.round).stragglers = stragglers
		s.mu.Unlock()
		if err := s.submitWave(rp.round, wave1); err != nil {
			return err
		}
		return s.submitWave(rp.round, wave2)
	}
}

// submitWave ships items in batches across the transport pool, then
// reconciles observed outcomes against expectations.
func (s *simulation) submitWave(round uint64, items []item) error {
	var wg sync.WaitGroup
	errCh := make(chan error, (len(items)/batchSize)+1)
	for batch := range slices.Chunk(items, batchSize) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.submitBatch(round, batch); err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

func (s *simulation) submitBatch(round uint64, batch []item) error {
	raws := make([][]byte, len(batch))
	want := 0
	for i, it := range batch {
		raws[i] = it.raw
		if it.expect == CatAccepted {
			want++
		}
	}
	accepted, errs, err := s.pool.submit(raws)
	if err != nil {
		return fmt.Errorf("sim: transport: %w", err)
	}
	// The batch composition is known, so the accepted count must equal the
	// number of items expected to be accepted. A tally-only transport
	// (gaas) reports nothing more, and per-item categories are booked from
	// the plan; a transport that observes per-item errors holds each to it.
	if accepted != want {
		s.violate("round %d: batch tally accepted=%d, plan expects %d", round, accepted, want)
	}
	for i, it := range batch {
		hostile := it.expect != CatAccepted
		if errs != nil {
			switch err := errs[i]; {
			case !hostile && err != nil:
				s.violate("round %d device %d: expected accept, got %v", round, it.device, err)
				continue
			case hostile && err == nil:
				s.violate("round %d device %d: %s was accepted", round, it.device, it.expect)
				continue
			case hostile && it.want != nil && !errors.Is(err, it.want):
				s.violate("round %d device %d: expected %s (%v), got %v", round, it.device, it.expect, it.want, err)
			}
		}
		if hostile {
			s.recordReject(round, it.expect)
		} else {
			s.recordAccept(round, it, CatAccepted)
		}
	}
	return nil
}

// ticketProbes fires the ticket-specific attacks after the plan has run —
// each against a fresh probe round, so every refusal happens at round
// admission and no probe can create state. In order (the expiry probe
// advances the shared clock, so it must come last):
//
//  1. forged MAC: a genuine ticketed contribution with one tag byte
//     flipped must be refused with ErrBadMAC and must not create its round
//     (ticket issued in round window, MAC broken in flight);
//  2. ticket window: a contribution MAC'd under a deliberately tight
//     ticket ([1,1]) naming a later round must be refused with
//     ErrTicketWindow — the binding that bounds what a stolen session key
//     can pre-sign (a ticket issued for round N cannot endorse round N+k);
//  3. cross-tenant replay: an accepted ticketed contribution respelled for
//     a tenant that does not exist must bounce at the registry without
//     touching this tenant;
//  4. expired ticket: after the clock passes the TTL, the original
//     (wide-window) ticket's MACs are refused with ErrTicketExpired.
//
// Probes submit through the registry directly (like the multi-tenant
// isolation probes) so the exact refusal error is observable on every
// transport; each refusal is booked into the same accounting the final
// reconciliation checks.
func (s *simulation) ticketProbes(*script) error {
	probeRound := uint64(s.cfg.Rounds + 1)
	// One honest contribution in the workload's shape.
	value, private := fixed.NewVector(s.cfg.Dim), []int64(nil)
	for i := range value {
		value[i] = fixed.FromFloat(0.5)
	}
	if s.cfg.Workload == WorkloadBotdetect {
		value, private = botdetect.VerdictContribution(), planFeatures(s.cfg.Seed, probeRound, 0, false)
	}
	// probe contributes from device d and demands that the registry refuse
	// the bytes (forge: with one tag byte flipped) with want, booking the
	// refusal under cat. It returns the genuine bytes.
	probe := func(d int, forge bool, want error, cat string) []byte {
		raw, err := s.t.Contribute(d, probeRound, value, private)
		if err != nil {
			s.violate("ticket probe %s: contribute: %v", cat, err)
			return nil
		}
		sent := raw
		if forge {
			sent = flipLastByte(raw)
		}
		if s.expectRefuse(s.st, sent, want, "ticket probe "+cat) {
			s.recordReject(probeRound, cat)
		}
		return raw
	}

	// 1. Forged MAC on a fresh round.
	genuine := probe(0, true, service.ErrBadMAC, CatRejectedForgedMAC)
	if _, ok := s.manager.Lookup(probeRound); ok {
		s.violate("ticket probe: forged MAC created round %d", probeRound)
	}
	if genuine == nil {
		return nil
	}

	// 2. Round outside a tight ticket's window, from its own device (a
	// dealer mask is one-time-use per device and round, so each probe
	// contribution comes from a distinct device). Installing the tight
	// ticket replaces that device's session.
	if err := s.t.GrantTicket(2, 1, 1, s.st.Registry().GrantTicket); err != nil {
		s.violate("ticket probe: tight ticket: %v", err)
		return nil
	}
	probe(2, false, service.ErrTicketWindow, CatRejectedTicketWindow)

	// 3. Cross-tenant replay: the forged round's genuine bytes respelled
	// for a ghost tenant; the registry must refuse without routing.
	if ghost, err := renameContribution(genuine, "ghost.invalid"); err != nil {
		s.violate("ticket probe: ghost rename: %v", err)
	} else if s.expectRefuse(s.st, ghost, service.ErrUnknownTenant, "ticket probe: ghost tenant") {
		s.recordReject(probeRound, CatRejectedUnknownTenant)
	}

	// 4. Expired ticket: device 1 still holds the original wide ticket;
	// once the clock passes the TTL its MACs must be refused.
	s.clock.Add(service.DefaultTicketTTL + 1)
	probe(1, false, service.ErrTicketExpired, CatRejectedExpiredTicket)
	if _, ok := s.manager.Lookup(probeRound); ok {
		s.violate("ticket probe: probes created round %d", probeRound)
	}
	return nil
}

// sealRound plays the round's stragglers on the sides of the seal the plan
// drew (those before are submitted and answered, then the round seals,
// then those after are submitted), applies the dealer's dropout
// correction, and checks the end-of-round invariants: accepted count
// matches, and the corrected aggregate equals the exact sum of accepted
// honest values.
func (s *simulation) sealRound(g uint64) step {
	return func(*script) error {
		s.mu.Lock()
		rs := s.state(g)
		s.mu.Unlock()
		var after []item
		for _, it := range rs.stragglers {
			if s.plan.rounds[g-1].devices[it.device].beforeSeal {
				s.submitStraggler(g, it)
			} else {
				after = append(after, it)
			}
		}
		if err := s.manager.Seal(g); err != nil {
			s.violate("round %d: seal failed: %v", g, err)
		}
		for _, it := range after {
			s.submitStraggler(g, it)
		}

		p, ok := s.manager.Lookup(g)
		if !ok {
			s.violate("round %d: no pipeline after seal", g)
			return nil
		}
		dropoutsRecovered := s.correctAbsentees(g, rs, p)
		count, sum := p.Count(), p.Sum()
		s.expectCount(fmt.Sprintf("round %d: pipeline count vs observed accepted", g), count,
			rs.tally[CatAccepted]+rs.tally[CatStragglerAccepted])
		s.reports = append(s.reports, RoundReport{
			Round:             g,
			Accepted:          count,
			Tally:             rs.tally,
			SumDigest:         sum.Digest(),
			Exact:             s.expectExact(fmt.Sprintf("round %d: sealed aggregate", g), sum, rs.sum),
			DropoutsRecovered: dropoutsRecovered,
		})
		return nil
	}
}

// submitStraggler ships one held-back contribution. Accepted and
// ErrRoundSealed are its only legal outcomes; both feed the invariants.
func (s *simulation) submitStraggler(g uint64, it item) {
	accepted, errs, err := s.pool.submit([][]byte{it.raw})
	if err != nil {
		s.violate("round %d straggler %d: transport: %v", g, it.device, err)
		return
	}
	if errs != nil && errs[0] != nil && !errors.Is(errs[0], service.ErrRoundSealed) {
		s.violate("round %d straggler %d: unexpected refusal %v", g, it.device, errs[0])
		return
	}
	if accepted == 1 {
		s.recordAccept(g, it, CatStragglerAccepted)
		return
	}
	s.recordReject(g, CatStragglerRejected)
	s.mu.Lock()
	s.state(g).lost[it.device] = true
	s.mu.Unlock()
}

// correctAbsentees asks the tenant's dealer, once, for the sum of the
// masks of every device whose contribution did not enter the sealed
// aggregate — dropouts, byzantine and tampered devices, and stragglers that
// came after the seal — and removes it with one dropout correction. It
// returns the number of dropouts the correction covered.
func (s *simulation) correctAbsentees(g uint64, rs *roundState, p *service.Pipeline) int {
	var absent []uint32
	dropouts := 0
	for d, dp := range s.plan.rounds[g-1].devices {
		switch {
		case dp.role == roleDropout:
			dropouts++
		case dp.role == roleByzantine, dp.role == roleCorruptSig, dp.straggler && rs.lost[d]:
			// Never submitted or refused: the dealt mask is still out.
		default:
			continue
		}
		absent = append(absent, uint32(d))
	}
	if len(absent) == 0 {
		return 0
	}
	mask, err := s.t.Reveal(g, absent)
	if err != nil {
		s.violate("round %d: dealer reveal: %v", g, err)
		return 0
	}
	if err := p.CorrectDropout(mask); err != nil {
		s.violate("round %d: dropout correction refused: %v", g, err)
		return 0
	}
	return dropouts
}

// closeRound closes a sealed round and verifies post-close immutability:
// dropout correction must be refused and the aggregate must not move.
func (s *simulation) closeRound(c uint64) step {
	return func(*script) error {
		p, ok := s.manager.Lookup(c)
		if !ok {
			s.violate("round %d: no pipeline to close", c)
			return nil
		}
		before := p.Sum().Digest()
		s.manager.Close(c)
		junk := fixed.NewVector(s.cfg.Dim)
		for i := range junk {
			junk[i] = fixed.FromFloat(1)
		}
		if err := p.CorrectDropout(junk); !errors.Is(err, service.ErrRoundClosed) {
			s.violate("round %d: dropout correction after close returned %v, want ErrRoundClosed", c, err)
		}
		if after := p.Sum().Digest(); after != before {
			s.violate("round %d: closed aggregate moved (%s -> %s)", c, before, after)
		}
		return nil
	}
}

// reconcileRejections checks that every tenant-level refusal observed is
// accounted for exactly by this tenant's manager- and pipeline-level
// counters. Routing-level refusals land in the registry counter the
// tenants share, which MultiScenario.Run reconciles across them.
func (s *simulation) reconcileRejections(*script) error {
	s.reconcile(s.cfg.ServiceName, s.st.ledger(s.manager), refusals{tenant: s.observedRejects, manager: unchecked, registry: unchecked})
	return nil
}
