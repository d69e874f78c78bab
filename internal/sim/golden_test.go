package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// update regenerates testdata/golden from the code under test:
// `go test ./internal/sim -run TestSimGolden -update`. The goldens were
// recorded from the four hand-built worlds that preceded the kernel; a
// refactor of the simulator must reproduce them byte for byte, so
// regenerating is only legitimate when the simulated workload itself
// (seeds, plans, probes) is deliberately changed.
var update = flag.Bool("update", false, "rewrite internal/sim/testdata/golden from the current code")

// checkGolden compares got against testdata/golden/<name>.txt.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update on a known-good tree): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverges from its golden:\n--- want\n%s--- got\n%s", name, want, got)
	}
}

// goldenFaults is the all-mechanisms (straggler-free, so deterministic)
// plan TestSimReproducibleTrace and TestSimTicketedReproducibleTrace use.
func goldenFaults() FaultPlan {
	return FaultPlan{
		DropoutRate:     0.15,
		ByzantineRate:   0.10,
		CorruptSigRate:  0.10,
		DuplicateRate:   0.30,
		ReplayRate:      0.30,
		GarbageRate:     0.25,
		OutOfWindowRate: 0.25,
	}
}

// sortedLines renders a uint64-keyed map one "label key: value" line per
// entry, in key order.
func sortedLines[V any](sb *strings.Builder, label string, m map[uint64]V) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		fmt.Fprintf(sb, "%s %d: %v\n", label, k, m[k])
	}
}

// TestSimGoldenTraces pins the seeded scenario traces — signed and
// ticketed, over every transport — to bytes recorded before the simulator
// kernel existed: the differential test between the old worlds and the
// new builder. Same seed, byte-identical trace.
func TestSimGoldenTraces(t *testing.T) {
	for _, ticketed := range []bool{false, true} {
		for _, tr := range []TransportKind{TransportDirect, TransportTCP, TransportTLS} {
			name := "repro_" + tr.String()
			if ticketed {
				name = "repro_ticketed_" + tr.String()
			}
			t.Run(name, func(t *testing.T) {
				rep, err := Scenario{Name: name, Config: Config{
					Seed:      7,
					Devices:   8,
					Rounds:    3,
					Overlap:   2,
					Dim:       6,
					Transport: tr,
					Ticketed:  ticketed,
					Faults:    goldenFaults(),
				}}.Run()
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range rep.Violations {
					t.Errorf("invariant violation: %s", v)
				}
				checkGolden(t, name, rep.Trace())
			})
		}
	}
}

// TestSimGoldenMultiTenant pins each tenant's trace from the canonical
// three-tenant scenario: isolation means co-tenants never perturb it.
func TestSimGoldenMultiTenant(t *testing.T) {
	rep, err := multiTenantScenario(TransportDirect).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	for i, tr := range rep.Reports {
		checkGolden(t, fmt.Sprintf("multitenant_%d", i), tr.Trace())
	}
}

// TestSimGoldenFleet pins the fleet scenario's seeded outcome: placement,
// merged sums, and every accounting total.
func TestSimGoldenFleet(t *testing.T) {
	rep, err := RunFleet(t.TempDir(), FleetConfig{Seed: 7, Devices: 7, Dim: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	var sb strings.Builder
	sortedLines(&sb, "sum", rep.SumDigests)
	sortedLines(&sb, "owner", rep.Owner)
	fmt.Fprintf(&sb, "merged-rounds: %d\nmerged-contribs: %d\nrejected-total: %d\nrefused-seals: %d\ndouble-submit-caught: %v\n",
		rep.MergedRounds, rep.MergedContribs, rep.RejectedTotal, rep.RefusedSeals, rep.DoubleSubmitCaught)
	checkGolden(t, "fleet", sb.String())
}

// TestSimGoldenCrashRecovery pins the whole kill-and-restart report,
// recovery statistics included: the journal the first life leaves behind
// is part of the contract.
func TestSimGoldenCrashRecovery(t *testing.T) {
	rep, err := RunCrashRecovery(t.TempDir(), CrashConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "recover-cold: %+v\nrecover-crash: %+v\n", rep.RecoverCold, rep.RecoverCrash)
	fmt.Fprintf(&sb, "round1-exact: %v\nround2-exact: %v\nseal-observed: %v\n", rep.Round1Exact, rep.Round2Exact, rep.SealObserved)
	fmt.Fprintf(&sb, "pre-crash-accepted: %d\nstaged-lost: %d\nfinal-count: %d\ntickets-restored: %d\n",
		rep.PreCrashAccepted, rep.StagedLost, rep.FinalCount, rep.TicketsRestored)
	fmt.Fprintf(&sb, "violations: %q\n", rep.Violations)
	checkGolden(t, "crash", sb.String())
}

// TestSimGoldenEdgeAdversary pins the malicious-edge scenario's
// deterministic fields (the governance counters' timing-dependent parts
// are asserted by TestSimEdgeAdversary, not pinned).
func TestSimGoldenEdgeAdversary(t *testing.T) {
	rep, err := RunEdgeAdversary(EdgeConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	checkGolden(t, "edge", fmt.Sprintf("flood-admitted: %d\nflood-refused: %d\nfinal-count: %d\nround-exact: %v\nswapped-refused: %v\n",
		rep.FloodAdmitted, rep.FloodRefused, rep.FinalCount, rep.RoundExact, rep.SwappedRefused))
}
