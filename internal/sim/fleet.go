package sim

import (
	"fmt"
	"path/filepath"

	"glimmers/internal/durable"
	glimnode "glimmers/internal/node"
	"glimmers/internal/service"
	"glimmers/internal/testbed"
	"glimmers/internal/wire"
)

// Fleet scenario: one tenant's rounds on N glimmerd nodes, each admitting
// only the rounds the ring places on it as glimmerd's -peers does, each
// owner draining to ship its round's one seal over TCP to a coordinator
// node that merges it — driven through an owner's crash, a network
// partition, a client's cross-node retry and forged-seal probes.
//
// The scenario demands the fleet's three correctness claims:
//
//   - exact sums survive the faults: the merged sum of every round —
//     clean, crashed, or partitioned — is byte-identical to the exact sum
//     of its full cohort (the zero-sum dealer masks cancel only over the
//     whole cohort, so any lost or doubled contribution poisons the sum
//     loudly);
//   - accounting reconciles across the fleet: every refusal is booked
//     once — a non-owner's by its manager, an owner's in its seal — and
//     the totals equal exactly the probes the scenario injected;
//   - forged, split, replayed and late seals are refused without
//     disturbing their merge.
type FleetConfig struct {
	Seed    int64
	Devices int // full cohort per round
	Dim     int
}

func (c FleetConfig) withDefaults() FleetConfig {
	c.Devices = positiveOr(c.Devices, 9)
	c.Dim = positiveOr(c.Dim, 4)
	return c
}

const (
	// fleetNodes is the glimmerd node count; the ring places rounds on them.
	fleetNodes = 3
	// fleetCleanRounds are the fault-free rounds before the crash and
	// partition.
	fleetCleanRounds = 3
	// fleetRounds is the total round count: the clean rounds plus the
	// crash round, the partition round, and the double-submit probe round.
	fleetRounds = fleetCleanRounds + 3
)

// FleetReport is the observable outcome of one fleet run.
type FleetReport struct {
	Nodes int
	// Owner maps each round to the node the ring placed it on.
	Owner map[uint64]uint32

	// RecoverCrash is the crashed owner's restart: snapshot + WAL replay +
	// torn-tail truncation, exactly as in the single-node crash scenario.
	RecoverCrash durable.RecoverStats

	MergedRounds   int    // merges the coordinator completed
	MergedContribs uint64 // contributions it merged
	RejectedTotal  uint64 // node-booked refusals carried in merged seals
	RefusedSeals   uint64 // seals the coordinator turned away

	// DoubleSubmitCaught reports that a client's retry of an accepted
	// contribution was refused at a node that does not own the round and
	// as a duplicate at the owner, so it counted once.
	DoubleSubmitCaught bool

	// SumDigests holds each merged round's sum digest — two runs with the
	// same seed must produce identical maps.
	SumDigests map[uint64]string

	// Violations lists every invariant break; empty means the scenario
	// held end to end.
	Violations []string
}

const fleetSimService = "fleet.example"

// RunFleet drives the fleet scenario against stateDir (which must be
// empty — use a fresh temp dir; each node gets a subdirectory). Setup
// failures return an error; invariant breaks are booked in the report's
// Violations.
func RunFleet(stateDir string, cfg FleetConfig) (*FleetReport, error) {
	cfg = cfg.withDefaults()
	spec := testbed.TenantSpec{
		Name:    fleetSimService,
		Seed:    cfg.Seed,
		Devices: cfg.Devices,
		Dim:     cfg.Dim,
		Hosting: hosting(nil),
	}
	for round := uint64(1); round <= fleetRounds; round++ {
		spec.Rounds = append(spec.Rounds, round)
	}
	// The coordinator, glimmerd -coordinator self. Its hub holds no node
	// registry: identities pin on first use and the pins span rounds.
	nodes := []nodeSpec{{Config: glimnode.Config{Hub: &service.MergeHub{AllowTOFU: true}, Edge: glimnode.DefaultEdge()}, transport: TransportTCP}}
	for id := uint32(1); id <= fleetNodes; id++ {
		nodes = append(nodes, nodeSpec{Config: glimnode.Config{NodeID: id, StateDir: filepath.Join(stateDir, fmt.Sprintf("node-%d", id))}})
	}
	w, err := build([]testbed.TenantSpec{spec}, nodes...)
	if err != nil {
		return nil, err
	}
	defer w.shutdown()
	s := w.scripts[0]
	rep := &FleetReport{Nodes: fleetNodes, Owner: s.owners, SumDigests: s.sumDigests}

	all, half, third := cfg.Devices, cfg.Devices/2, cfg.Devices/3
	var scenario []step
	// ----- Clean rounds: the ring places each round on one owner, the
	// owner drains, the coordinator merges its seal. Each cohort carries
	// the standard probe pair: a forged signature and a duplicate.
	for round := uint64(1); round <= fleetCleanRounds; round++ {
		scenario = append(scenario, inRound(round,
			ingest(owner, 0, 1), forged(owner, all-1, nil), ingest(owner, 1, all), duplicate(owner, 0),
			drain(owner),
			merged(2)))
	}
	crashRound := uint64(fleetCleanRounds + 1)
	scenario = append(scenario,
		// ----- Crash round: the owner dies after accepting half the
		// cohort; the remainder tries the successor meanwhile and is
		// refused, as on glimmerd, whose ring never changes. The restarted
		// owner recovers its half from snapshot + WAL and takes the rest.
		inRound(crashRound,
			// The periodic snapshot lands between the last seal and the
			// crash.
			snapshot(owner),
			ingest(owner, 0, half),
			// The pre-crash accepts reach the WAL before the kill (the
			// staged-and-lost window is RunCrashRecovery's job).
			flush(owner),
			notOwned(successor, half, all),
			crash(owner, true),
			func(s *script) error { rep.RecoverCrash = s.at(owner).Recovered(); return nil },
			holds(owner, half),
			// Dedup survived the crash: a duplicate of a pre-crash
			// contribution is still a duplicate on the restarted owner.
			duplicate(owner, 0),
			ingest(owner, half, half+1), forged(owner, all-1, nil), ingest(owner, half+1, all),
			// Forged seals first, while the round has no merge: once it
			// has one, every seal for it is refused as a replay or as late
			// before its signature is checked.
			refuse(split(sealOf(owner), 2), wire.ErrSealMismatch, "seal declaring a split round"),
			refuse(flipped(sealOf(owner)), wire.ErrSealSignature, "flipped-signature seal"),
			refuse(resigned(sealOf(owner), owner), wire.ErrSealIdentity, "seal re-signed under the owner's ID with another key"),
			drain(owner),
			refuse(sealOf(owner), wire.ErrSealReplay, "replayed seal"),
			refuse(resigned(sealOf(owner), successor), wire.ErrMergeComplete, "late seal from another node"),
			merged(2)),
		// ----- Partition round: clients cut off from the owner after it
		// accepted a third are refused at the successor; once the
		// partition heals they send to the owner — nothing lost or doubled.
		inRound(crashRound+1,
			ingest(owner, 0, third),
			notOwned(successor, third, all),
			ingest(owner, third, all),
			drain(owner),
			merged(0)),
		// ----- Double-submit round: a client whose ack was lost retries at
		// another node, which does not own the round, and at the owner,
		// whose dedup refuses the copy: it counts once.
		inRound(crashRound+2,
			ingest(owner, 0, all),
			func(s *script) error {
				before := len(s.violations)
				err := s.play(notOwned(successor, 0, 1), duplicate(owner, 0))
				rep.DoubleSubmitCaught = err == nil && len(s.violations) == before
				return err
			},
			drain(owner),
			merged(1)),
	)
	if err := s.play(scenario...); err != nil {
		return nil, err
	}
	// ----- Fleet reconciliation: every refusal anywhere in the fleet is
	// accounted for exactly once, and nothing else was refused; a round's
	// refusals travel in its owner's seal, so the merged totals equal the
	// round-level probes injected.
	carried := 0
	for id, n := range s.nodes {
		r := s.injected[id]
		s.reconcile(fmt.Sprintf("node %d", id), n.ledger(n.manager(s.t)), refusals{tenant: r.tenant, manager: r.manager, registry: 0})
		carried += r.tenant - r.manager
	}
	// The hub's ledger, not its merges: a first-contact refusal never had a
	// merge to count it, and a retired merge's counters go with it.
	hub := s.coordinator.Hub.Stats()
	rep.MergedRounds, rep.MergedContribs = hub.Completed, hub.ContribsMerged
	rep.RejectedTotal, rep.RefusedSeals = hub.ContribsRejected, hub.SealsRefused
	// Every round of the scenario opened one merge, and the scenario is far
	// below the hub's caps, so it holds them all.
	s.expectCount("merges the coordinator holds", rep.MergedRounds, fleetRounds)
	s.expectCount("merged rejection accounting", int(rep.RejectedTotal), carried)
	s.expectCount("seals the coordinator refused", int(rep.RefusedSeals), int(s.refusedSeals))
	s.expectCount("merged contributions", int(rep.MergedContribs), cfg.Devices*fleetRounds)
	rep.Violations = s.violations
	return rep, nil
}
