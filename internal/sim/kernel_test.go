package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"glimmers/internal/durable"
	glimnode "glimmers/internal/node"
	"glimmers/internal/service"
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
// flushers never fire on their own, so a test decides what is on disk.
func durableWorld(t *testing.T, nodes, devices int, rounds ...uint64) *script {
	t.Helper()
	var specs []nodeSpec
	for id := uint32(1); id <= uint32(nodes); id++ {
		specs = append(specs, nodeSpec{Config: glimnode.Config{NodeID: id, MaxTotalRounds: 8, StateDir: t.TempDir(),
			WAL: durable.Config{FlushBytes: 1 << 30, FlushInterval: time.Hour}}})
	}
	s, err := build(tenantSpec{
		name: "kernel.example", seed: 5, devices: devices, dim: 3, rounds: rounds,
		hosting: service.TenantConfig{Workers: 2, Shards: 2, ExpectedCohort: devices, MaxRounds: 8},
	}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.shutdown)
	return s
}

// TestSimKillLeaksNothing: a simulated kill must release the dead life —
// its WAL fd and its flusher goroutine — the way a real crash would, not
// park them until the process ends. Twenty-five kills return the
// goroutine count to its baseline, and recovery after such a kill still
// sees exactly the flushed prefix (the released store wrote nothing on
// its way out).
func TestSimKillLeaksNothing(t *testing.T) {
	s := durableWorld(t, 1, 6, 1)
	baseline := runtime.NumGoroutine()
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
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("%d goroutines after 25 simulated kills, baseline %d: dead lives leaked", got, baseline)
	}
}

// TestSimCrashDuringPartition is a fault product no hand-built world
// covered: the successor a partitioned round failed over to crashes —
// losing a staged accept — while the owner is still cut off. It is the
// README's example of a new scenario being a literal.
func TestSimCrashDuringPartition(t *testing.T) {
	s := durableWorld(t, 3, 6, 1)
	err := s.play(inRound(1,
		ingest(owner, 0, 2),     // the owner takes two, then is cut off
		ingest(successor, 2, 4), // clients fail over to the ring successor
		flush(successor),
		ingest(successor, 4, 5), // staged, never flushed
		crash(successor, true),  // the successor dies mid-partition
		holds(successor, 2),     // and comes back with the flushed prefix
		duplicate(successor, 2), // its dedup table survived
		ingest(successor, 4, 6), // the lost accept re-sends; the cohort completes
		merge(sealOf(owner, 2)), // the partition heals: both sides seal
		merge(sealOf(successor, 2)),
		merged(1), // exact sum, full cohort, one refusal on the books
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range s.violations {
		t.Errorf("invariant violation: %s", v)
	}
}
