package sim

import (
	"flag"
	"strings"
	"testing"
)

// Long-mode knobs: `go test ./internal/sim -sim.devices=64 -sim.rounds=12`
// scales the soak past the defaults; `-short` shrinks it for smoke runs.
// `-sim.seed=N` moves the soak, fleet and crash-sweep tests off their
// pinned seeds (the nightly CI job sweeps N); the invariants they check
// must hold for every seed.
var (
	soakDevices = flag.Int("sim.devices", 0, "soak fleet size (0 = suite default)")
	soakRounds  = flag.Int("sim.rounds", 0, "soak round count (0 = suite default)")
	seedOffset  = flag.Int64("sim.seed", 0, "added to the soak, fleet and crash-sweep seeds (0 = the pinned seeds)")
)

func soakScale(t *testing.T) (devices, rounds int) {
	devices, rounds = 14, 4
	if testing.Short() {
		devices, rounds = 8, 3
	}
	if *soakDevices > 0 {
		devices = *soakDevices
	}
	if *soakRounds > 0 {
		rounds = *soakRounds
	}
	t.Logf("soak scale: %d devices × %d rounds", devices, rounds)
	return devices, rounds
}

// fullFaultPlan enables every fault mechanism the simulator knows.
func fullFaultPlan() FaultPlan {
	return FaultPlan{
		DropoutRate:     0.10,
		ByzantineRate:   0.08,
		CorruptSigRate:  0.08,
		DuplicateRate:   0.25,
		ReplayRate:      0.25,
		GarbageRate:     0.20,
		OutOfWindowRate: 0.20,
		Stragglers:      1,
	}
}

// TestSimSoakAllFaults is the soak: the full stack under every fault type
// at once, overlapping rounds, with all end-of-round invariants enforced.
// Run under -race in CI.
func TestSimSoakAllFaults(t *testing.T) {
	devices, rounds := soakScale(t)
	rep, err := Scenario{
		Name: "soak-all-faults",
		Config: Config{
			Seed:    42 + *seedOffset,
			Devices: devices,
			Rounds:  rounds,
			Overlap: 2,
			Dim:     8,
			Faults:  fullFaultPlan(),
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	t.Log(rep.Trace())
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if len(rep.Rounds) != rounds {
		t.Fatalf("sealed %d rounds, want %d", len(rep.Rounds), rounds)
	}
	faultCats := 0
	for cat, n := range rep.Totals {
		if cat != CatAccepted && cat != CatStragglerAccepted && n > 0 {
			faultCats++
		}
	}
	if faultCats < 3 {
		t.Errorf("soak exercised only %d fault categories (%v), want >= 3 — enlarge the fleet or rates", faultCats, rep.Totals)
	}
	for _, rr := range rep.Rounds {
		if !rr.Exact {
			t.Errorf("round %d aggregate not exact", rr.Round)
		}
	}
}

// TestSimReproducibleTrace locks the determinism contract: same seed, same
// accept/reject/sum trace. (Stragglers race Seal by design, so the plan
// here has none.)
func TestSimReproducibleTrace(t *testing.T) {
	cfg := Config{
		Seed:    7,
		Devices: 8,
		Rounds:  3,
		Overlap: 2,
		Dim:     6,
		Faults: FaultPlan{
			DropoutRate:     0.15,
			ByzantineRate:   0.10,
			CorruptSigRate:  0.10,
			DuplicateRate:   0.30,
			ReplayRate:      0.30,
			GarbageRate:     0.25,
			OutOfWindowRate: 0.25,
		},
	}
	run := func() string {
		t.Helper()
		rep, err := Scenario{Name: "repro", Config: cfg}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("invariant violation: %s", v)
		}
		return rep.Trace()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("same seed produced different traces:\n--- first\n%s--- second\n%s", first, second)
	}
	if !strings.Contains(first, "rejected/") {
		t.Fatalf("reproducibility plan injected no faults:\n%s", first)
	}

	other := cfg
	other.Seed = 8
	rep, err := Scenario{Name: "repro-other-seed", Config: other}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace() == first {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestSimTransportsAgree runs the same seeded plan over every transport.
// The transport must not change the outcome: the in-process path and the
// gaas frame protocol over loopback TCP and TLS-wrapped loopback TCP all
// yield the same trace.
func TestSimTransportsAgree(t *testing.T) {
	cfg := Config{
		Seed:    11,
		Devices: 6,
		Rounds:  3,
		Overlap: 1,
		Dim:     4,
		Faults: FaultPlan{
			DropoutRate:     0.15,
			CorruptSigRate:  0.15,
			DuplicateRate:   0.30,
			ReplayRate:      0.40,
			GarbageRate:     0.25,
			OutOfWindowRate: 0.40,
		},
	}
	traces := make(map[TransportKind]string)
	for _, tr := range []TransportKind{TransportDirect, TransportTCP, TransportTLS} {
		c := cfg
		c.Transport = tr
		rep, err := Scenario{Name: "transport-" + tr.String(), Config: c}.Run()
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		for _, v := range rep.Violations {
			t.Errorf("%v: invariant violation: %s", tr, v)
		}
		traces[tr] = rep.Trace()
	}
	if traces[TransportTCP] != traces[TransportDirect] {
		t.Errorf("tcp trace differs from direct:\n--- direct\n%s--- tcp\n%s", traces[TransportDirect], traces[TransportTCP])
	}
	if traces[TransportTLS] != traces[TransportDirect] {
		t.Errorf("tls trace differs from direct:\n--- direct\n%s--- tls\n%s", traces[TransportDirect], traces[TransportTLS])
	}
	// The plan must actually exercise the lifecycle rejections whose
	// tally-only booking this test exists to cover.
	for _, cat := range []string{CatRejectedReplay, CatRejectedWindow} {
		if !strings.Contains(traces[TransportDirect], cat) {
			t.Errorf("plan injected no %s faults; transports not meaningfully compared", cat)
		}
	}
}

// TestSimStragglersOverGaas drives the tally-only straggler resolution:
// over the gaas transport the straggler's fate is read from a singleton
// batch's accepted/rejected counts rather than a per-item error, and the
// invariants must hold for either race outcome.
func TestSimStragglersOverGaas(t *testing.T) {
	rep, err := Scenario{
		Name: "stragglers-tcp",
		Config: Config{
			Seed:      5,
			Devices:   6,
			Rounds:    3,
			Overlap:   2,
			Dim:       4,
			Transport: TransportTCP,
			Faults:    FaultPlan{DropoutRate: 0.2, Stragglers: 2},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if got := rep.Totals[CatStragglerAccepted] + rep.Totals[CatStragglerRejected]; got == 0 {
		t.Error("no straggler outcomes observed")
	}
}

// TestSimScenarioSpec is the scenario API in its intended shape: a fresh
// workload is a short literal, and Run does the rest.
func TestSimScenarioSpec(t *testing.T) {
	rep, err := Scenario{
		Name: "churny-evening",
		Config: Config{
			Seed:    2024,
			Devices: 6,
			Rounds:  2,
			Dim:     4,
			Faults:  FaultPlan{DropoutRate: 0.3, Stragglers: 1},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations: %v", rep.Violations)
	}
}
