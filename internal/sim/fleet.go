package sim

import (
	"fmt"
	"path/filepath"

	"glimmers/internal/durable"
	glimnode "glimmers/internal/node"
	"glimmers/internal/service"
)

// Fleet scenario: one tenant's rounds sharded across N glimmerd nodes by
// consistent hashing, each node sealing a signed partial aggregate, a
// coordinator merging the partials — driven through a node crash, a
// network partition, and a battery of forged-seal probes.
//
// The scenario demands the fleet's three correctness claims:
//
//   - exact sums survive sharding: the merged sum of every round — clean,
//     crashed, or partitioned — is byte-identical to the single-node exact
//     sum of its full cohort (the zero-sum dealer masks cancel only once
//     the merged partials cover the whole cohort, so any lost or doubled
//     contribution poisons the sum loudly);
//   - accounting reconciles globally: every refusal a node booked travels
//     in its seal, and the coordinator's totals equal exactly the probes
//     the scenario injected — across nodes, crashes, and re-homes;
//   - forged, replayed, stale, and overlapping partial seals are refused
//     without disturbing their merge, including the cross-node
//     double-submit a client retry after a lost ack would cause.
type FleetConfig struct {
	Seed        int64
	Nodes       int // glimmerd node count; rounds shard across them
	Devices     int // full cohort per round
	Dim         int
	CleanRounds int // fault-free rounds before the crash and partition
}

func (c FleetConfig) withDefaults() FleetConfig {
	c.Nodes = positiveOr(c.Nodes, 3)
	c.Devices = positiveOr(c.Devices, 9)
	c.Dim = positiveOr(c.Dim, 4)
	c.CleanRounds = positiveOr(c.CleanRounds, 3)
	return c
}

// rounds returns the total round count: the clean rounds plus the crash
// round, the partition round, and the double-submit probe round.
func (c FleetConfig) rounds() uint64 { return uint64(c.CleanRounds) + 3 }

// FleetReport is the observable outcome of one fleet run.
type FleetReport struct {
	Nodes int
	// Owner maps each round to the node the ring placed it on.
	Owner map[uint64]uint32

	// RecoverCrash is the crashed owner's restart: snapshot + WAL replay +
	// torn-tail truncation, exactly as in the single-node crash scenario.
	RecoverCrash durable.RecoverStats

	MergedRounds   int    // merges driven to completion
	MergedContribs uint64 // total cohort across completed merges
	RejectedTotal  uint64 // node-booked refusals carried in merged seals
	RefusedSeals   uint64 // partial seals the coordinator turned away

	// DoubleSubmitCaught reports that the cross-node double submission was
	// refused as an overlap instead of double-counting the contribution.
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
	spec := tenantSpec{
		name:    fleetSimService,
		seed:    cfg.Seed,
		devices: cfg.Devices,
		dim:     cfg.Dim,
		hosting: service.TenantConfig{Workers: 2, Shards: 2, ExpectedCohort: cfg.Devices + 2, MaxRounds: 16},
	}
	for round := uint64(1); round <= cfg.rounds(); round++ {
		spec.rounds = append(spec.rounds, round)
	}
	var nodes []nodeSpec
	for id := uint32(1); id <= uint32(cfg.Nodes); id++ {
		nodes = append(nodes, nodeSpec{Config: glimnode.Config{NodeID: id, MaxTotalRounds: 16, StateDir: filepath.Join(stateDir, fmt.Sprintf("node-%d", id))}})
	}
	s, err := build(spec, nodes...)
	if err != nil {
		return nil, err
	}
	defer s.shutdown()
	rep := &FleetReport{Nodes: cfg.Nodes, Owner: s.owners, SumDigests: s.sumDigests}

	all, half, third := cfg.Devices, cfg.Devices/2, cfg.Devices/3
	var scenario []step
	// ----- Clean rounds: the ring places each round on one owner, the
	// owner seals a ShardCount=1 partial, the coordinator merges it. Each
	// cohort carries the standard probe pair: a forged signature and a
	// duplicate.
	for round := uint64(1); round <= uint64(cfg.CleanRounds); round++ {
		scenario = append(scenario, inRound(round,
			ingest(owner, 0, 1), forged(owner, all-1, nil), ingest(owner, 1, all), duplicate(owner, 0),
			merge(sealOf(owner, 1)),
			merged(2)))
	}
	crashRound := uint64(cfg.CleanRounds) + 1
	scenario = append(scenario,
		// ----- Crash round: the owner dies after accepting half the
		// cohort; the remainder re-homes to the ring successor; the
		// restarted owner recovers its partial from snapshot + WAL and
		// both nodes seal ShardCount=2 partials.
		inRound(crashRound,
			// The periodic snapshot lands between the last seal and the
			// crash.
			snapshot(owner),
			ingest(owner, 0, half),
			// Pin the pre-crash accepts to disk: this scenario exercises
			// crashed-owner re-homing with records that had reached the
			// WAL, so the group-commit staging buffer is flushed before
			// the kill. (The staged-and-lost window is the crash-recovery
			// scenario's job; see RunCrashRecovery.)
			flush(owner),
			crash(owner, true),
			holds(owner, half),
			// Dedup survived the crash: a duplicate of a pre-crash
			// contribution is still a duplicate on the restarted owner.
			duplicate(owner, 0),
			// Re-home: the unacked remainder goes to the ring successor.
			// The acked half is NOT re-sent — the owner's recovered
			// partial covers it, and a re-send would surface as an overlap
			// at merge time.
			ingest(successor, half, half+1), forged(successor, all-1, nil), ingest(successor, half+1, all),
			// Merge under attack: the successor's seal lands first and
			// fixes the split at two, then every forged variant is refused
			// without disturbing the merge, then the recovered owner
			// completes it.
			merge(sealOf(successor, 2)),
			refuse(sealOf(owner, 1), service.ErrSealMismatch, "stale pre-re-home seal"),
			refuse(flipped(sealOf(owner, 2)), service.ErrSealSignature, "flipped-signature seal"),
			refuse(resigned(sealOf(successor, 2), 99), service.ErrSealOverlap, "adversarial seal claiming absorbed coverage"),
			refuse(sealOf(successor, 2), service.ErrSealReplay, "replayed partial seal"),
			merge(sealOf(owner, 2)),
			refuse(resigned(sealOf(owner, 2), 77), service.ErrMergeComplete, "late seal after completion"),
			merged(2)),
		// ----- Partition round: the owner is cut off from its clients
		// after accepting a third of the cohort; the rest fail over to the
		// ring successor. The partition heals and both sides seal —
		// nothing was lost, nothing doubled.
		inRound(crashRound+1,
			ingest(owner, 0, third),
			ingest(successor, third, all),
			merge(sealOf(owner, 2)), merge(sealOf(successor, 2)),
			merged(0)),
		// ----- Double-submit round: a client's ack is lost and it retries
		// the same contribution against a different node. Both nodes
		// accept (dedup state is per-node), but the second partial
		// re-claims a digest the first already covers — the coordinator
		// refuses it wholesale, so the contribution can never be
		// double-counted.
		inRound(crashRound+2,
			ingest(owner, 0, all),
			ingest(successor, 0, 1),
			merge(sealOf(owner, 2)),
			func(s *script) (err error) {
				rep.DoubleSubmitCaught, err = s.refuseSeal(sealOf(successor, 2), service.ErrSealOverlap, "cross-node double submit")
				if m, ok := s.hub.Lookup(fleetSimService, s.round); !ok {
					s.violate("double-submit round: no merge materialized")
				} else {
					if res := m.Result(); m.Complete() || res.Merged != 1 || res.Count != uint64(all) {
						s.violate("double-submit round disturbed by the refusal: %+v", res)
					}
					// The incomplete merge still holds the owner's exact partial.
					s.sumDigests[s.round] = m.Sum().Digest()
				}
				return err
			}),
	)
	if err := s.play(scenario...); err != nil {
		return nil, err
	}
	rep.RecoverCrash = s.nodes[s.owners[crashRound]].Recovered()

	// ----- Global reconciliation: every refusal anywhere in the fleet is
	// accounted for exactly once, and nothing else was refused. The
	// refusals a node's pipelines booked travel in its seals, so the
	// merged totals must equal exactly the probes the scenario injected.
	injected := 0
	for id, n := range s.nodes {
		s.reconcile(fmt.Sprintf("node %d", id), n.ledger(n.manager(s.t)), refusals{tenant: s.injected[id], manager: 0, registry: 0})
		injected += s.injected[id]
	}
	// The hub's ledger, not its merges: a first-contact refusal never had a
	// merge to count it, and a retired merge's counters go with it.
	hub := s.hub.Stats()
	rep.RejectedTotal, rep.RefusedSeals = hub.ContribsRejected, hub.SealsRefused
	// Every round of the scenario opened one merge, and the scenario is far
	// below the hub's caps, so it holds them all.
	s.expectCount("merges the coordinator holds", hub.Live+hub.Completed, int(cfg.rounds()))
	s.expectCount("merged rejection accounting", int(rep.RejectedTotal), injected)
	s.expectCount("seals the coordinator refused", int(rep.RefusedSeals), int(s.refusedSeals))
	s.expectCount("merged contributions", int(s.mergedContribs), cfg.Devices*(cfg.CleanRounds+2))
	rep.MergedRounds, rep.MergedContribs, rep.Violations = s.mergedRounds, s.mergedContribs, s.violations
	return rep, nil
}
