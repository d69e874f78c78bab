package sim

import (
	"fmt"
	"os"
	"slices"
	"time"

	"glimmers/internal/durable"
	glimnode "glimmers/internal/node"
	"glimmers/internal/service"
	"glimmers/internal/testbed"
)

// Crash-recovery scenario: a ticketed deployment is killed mid-round and
// restarted from its state directory. The fleet, the tenant's keys, and
// the injected clock live outside the crashed process (they model the
// remote clients and the operator's config, which a server crash does not
// erase); everything the registry held — the sealed round, the half-built
// round, the dedup digests, the session-ticket table — must come back
// from snapshot + WAL.
//
// The scenario demands the durability guarantees the store advertises:
//
//   - exact sums: the restarted round seals to the exact sum of every
//     honest contribution, pre- and post-crash (the full cohort's dealer
//     masks cancel only if no accepted contribution was lost or doubled);
//   - exact accounting: duplicates of pre-crash contributions are still
//     refused (the dedup digests survived) and every refusal lands in the
//     same counters a crash-free run would show;
//   - no thundering herd: pre-crash session tickets still verify, so the
//     fleet finishes the round on its MAC fast path without a single
//     re-run of the grant exchange;
//   - flushed-prefix recovery: with the group-commit WAL, accept records
//     still staged in memory when the process dies are lost — recovery
//     restores exactly the flushed prefix, never a torn mix, and the
//     affected devices simply re-send (their contributions were never
//     acknowledged as durable);
//   - seal-point barrier: the instant Seal returns, the seal record and
//     every accept record before it are on disk — an observer recovering
//     a byte-for-byte copy of the state directory taken right after the
//     seal sees the full sealed round, never a partial seal.
type CrashConfig struct {
	Seed    int64
	Devices int // full cohort; half contribute (flushed) before the crash
	Dim     int
}

func (c CrashConfig) withDefaults() CrashConfig {
	c.Devices = positiveOr(c.Devices, 6)
	c.Dim = positiveOr(c.Dim, 4)
	return c
}

// CrashReport is the observable outcome of one kill-and-restart run.
type CrashReport struct {
	// RecoverCold is the first life's recovery (an empty state dir).
	RecoverCold durable.RecoverStats
	// RecoverCrash is the restart's recovery: snapshot + WAL replay +
	// torn-tail truncation.
	RecoverCrash durable.RecoverStats

	Round1Exact bool // sealed before the crash, restored from the snapshot
	Round2Exact bool // split across the crash, sealed after recovery

	// SealObserved reports that a byte-for-byte copy of the state dir,
	// taken the instant Seal(1) returned (no flush, no snapshot, no clean
	// close), recovered to the fully sealed round — the seal-point
	// barrier held.
	SealObserved bool

	PreCrashAccepted int // round-2 contributions the first life accepted
	// StagedLost counts round-2 contributions that were accepted but
	// still staged in the group-commit buffer (never flushed) at the
	// kill — the documented loss window. Their devices, which never saw
	// a durable acknowledgment, re-send after recovery.
	StagedLost      int
	FinalCount      int // round-2 cohort after the second life seals
	TicketsRestored int // live tickets in the restarted table

	// Violations lists every invariant break; empty means the scenario
	// held end to end.
	Violations []string
}

const crashServiceName = "crash.example"

// RunCrashRecovery drives the scenario against stateDir (which must be
// empty — use a fresh temp dir). Setup failures return an error;
// invariant breaks are booked in the report's Violations.
func RunCrashRecovery(stateDir string, cfg CrashConfig) (*CrashReport, error) {
	cfg = cfg.withDefaults()
	half := cfg.Devices / 2
	return runCrash(stateDir, cfg, half, min(2, cfg.Devices-half-1))
}

// runCrash plays the kill-and-restart scenario with the crash point as
// data: the first life flushes round 2's first `flushed` accepts, stages
// (and loses) the next `staged`, and dies. flushed+staged must leave at
// least one device that has not contributed, for the forged-MAC probe.
func runCrash(stateDir string, cfg CrashConfig, flushed, staged int) (*CrashReport, error) {
	w, err := build([]testbed.TenantSpec{{
		Name:    crashServiceName,
		Seed:    cfg.Seed,
		Devices: cfg.Devices,
		Dim:     cfg.Dim,
		Rounds:  []uint64{1, 2},
		Hosting: hosting(simClock()),
	}}, nodeSpec{Config: glimnode.Config{NodeID: 1, StateDir: stateDir,
		// Huge thresholds: the background flusher never fires on its own, so
		// the only disk writes come from barriers and explicit flush steps —
		// the scenario controls exactly which records are durable at the kill.
		WAL: durable.Config{FlushBytes: 1 << 30, FlushInterval: time.Hour}}})
	if err != nil {
		return nil, err
	}
	defer w.shutdown()
	s := w.scripts[0]
	rep := &CrashReport{RecoverCold: s.nodes[1].Recovered(), StagedLost: staged, PreCrashAccepted: flushed + staged}
	fresh, all := flushed+staged, cfg.Devices

	// Exact accounting: a duplicate of a flushed pre-crash contribution is
	// still a duplicate — the dedup digests survived the crash. (With
	// nothing flushed there is none to probe with; the probe then follows
	// device 0's post-restart submission.)
	var dupAfterRestart, dupAtEnd step
	if flushed > 0 {
		dupAfterRestart = duplicate(owner, 0)
	} else {
		dupAtEnd = duplicate(owner, 0)
	}
	err = s.play(
		// ----- First life: grant tickets, seal round 1, snapshot, start
		// round 2, die mid-round. The grant exchange — the session's one
		// asymmetric operation — happens exactly once, here. The restarted
		// life must never see it again.
		inRound(1,
			grantTickets(owner, 1, 4),
			ingest(owner, 0, all),
			seal(owner),
			func(s *script) error {
				_, rep.Round1Exact = s.sealedExact(owner)
				return s.observeSeal(rep, stateDir+".seal-observer")
			}),
		snapshot(owner),
		inRound(2,
			// The flushed prefix: the records recovery must restore.
			ingest(owner, 0, flushed),
			flush(owner),
			// Staged and lost: accepted by the serving path, but the process
			// dies before any flush reaches their records. Recovery must
			// restore exactly the flushed prefix, and these devices (which
			// never saw a durable acknowledgment) simply re-send.
			ingest(owner, flushed, fresh),
			// ----- Second life: rebuild from config, recover from disk.
			crash(owner, true)),
		// Round 1 came back sealed with its exact sum.
		inRound(1, func(s *script) error {
			rep.RecoverCrash = s.at(owner).Recovered()
			if _, exact := s.sealedExact(owner); !exact {
				rep.Round1Exact = false
			}
			return nil
		}),
		inRound(2,
			holds(owner, flushed),
			dupAfterRestart,
			// A forged MAC is still refused: the restored ticket keys are
			// the real ones.
			forged(owner, fresh, service.ErrBadMAC),
			// The staged-and-lost devices re-send the identical bytes, and
			// the restored round, which genuinely lost them, accepts the
			// resend instead of refusing it as a duplicate.
			ingest(owner, flushed, fresh),
			// No thundering herd: the rest of the fleet finishes round 2
			// on its pre-crash tickets — pure MAC fast path, zero grant
			// exchanges.
			ingest(owner, fresh, all),
			dupAtEnd,
			seal(owner),
			func(s *script) error {
				rep.FinalCount, rep.Round2Exact = s.sealedExact(owner)
				// The two refusals above are the only ones either life saw.
				// (With nothing flushed, round 2 does not exist when the
				// forged MAC arrives: the manager refuses it at admission
				// instead of the round's pipeline.)
				n, want := s.at(owner), refusals{tenant: 2}
				if flushed == 0 {
					want.manager = 1
				}
				s.reconcile("second life", n.ledger(n.manager(s.t)), want)
				// The ticket table survived in full.
				for rec := range n.Registry().Records() {
					if rec.Kind == service.TicketGranted && rec.Tenant == crashServiceName {
						rep.TicketsRestored++
					}
				}
				s.expectCount("restored tickets", rep.TicketsRestored, all)
				return nil
			}))
	rep.Violations = s.violations
	return rep, err
}

// observeSeal checks the seal-point barrier. Seal has returned, so the
// seal record — and, because staging preserves order, every accept record
// before it — must already be on disk, with no flush, snapshot, or clean
// close having helped. An observer recovering a byte-for-byte copy of the
// state directory taken at this instant (exactly what a crash right now
// would leave) must see the fully sealed round, never a partial seal.
func (s *script) observeSeal(rep *CrashReport, obsDir string) error {
	spec := s.at(owner).nodeSpec
	if err := os.CopyFS(obsDir, os.DirFS(spec.StateDir)); err != nil {
		return fmt.Errorf("sim: observer copy: %w", err)
	}
	defer os.RemoveAll(obsDir)
	spec.StateDir = obsDir
	obs, err := startNode(s.at(owner).sub, spec)
	if err != nil {
		return fmt.Errorf("sim: observer recovery: %w", err)
	}
	for rec := range obs.Registry().Records() {
		if rec.Kind == service.RoundSealed && rec.Tenant == s.t.Name && rec.Round == s.round {
			rep.SealObserved = true
			break
		}
	}
	if !rep.SealObserved {
		s.violate("observer sees round %d unsealed: the seal record was not durable when Seal returned", s.round)
	}
	if p, ok := obs.manager(s.t).Lookup(s.round); !ok {
		rep.SealObserved = false
		s.violate("observer copy lost round %d after Seal returned", s.round)
	} else if p.Count() != s.t.Devices || !slices.Equal(p.Sum(), s.expectedSum()) {
		rep.SealObserved = false
		s.violate("observer sees a partial round %d: count=%d, want %d with the exact sum", s.round, p.Count(), s.t.Devices)
	}
	obs.Kill() // the observer only looked, and its copy is removed on return
	return nil
}
