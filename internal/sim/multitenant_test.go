package sim

import (
	"strings"
	"testing"
)

// multiTenantScenario is the canonical heterogeneous workload: two range
// tenants with different fleets and fault mixes plus the botdetect tenant,
// all under fault injection, sharing one stack.
func multiTenantScenario(transport TransportKind) MultiScenario {
	return MultiScenario{
		Name:      "three-tenants",
		Transport: transport,
		Tenants: []Config{
			{
				ServiceName: "maps.glimmers.example",
				Seed:        21, Devices: 8, Rounds: 3, Overlap: 2, Dim: 6,
				Faults: FaultPlan{
					DropoutRate: 0.15, ByzantineRate: 0.10, CorruptSigRate: 0.10,
					DuplicateRate: 0.30, ReplayRate: 0.30, GarbageRate: 0.25, OutOfWindowRate: 0.25,
				},
			},
			{
				ServiceName: "keyboard.glimmers.example",
				Seed:        22, Devices: 6, Rounds: 4, Overlap: 1, Dim: 4,
				Faults: FaultPlan{
					DropoutRate: 0.20, CorruptSigRate: 0.15, DuplicateRate: 0.40, GarbageRate: 0.30,
				},
			},
			{
				ServiceName: "webservice.glimmers.example",
				Workload:    WorkloadBotdetect,
				Seed:        23, Devices: 6, Rounds: 3, Overlap: 1,
				Faults: FaultPlan{
					DropoutRate: 0.15, ByzantineRate: 0.30, // bots
					DuplicateRate: 0.30, GarbageRate: 0.20, OutOfWindowRate: 0.25,
				},
			},
		},
	}
}

// TestMultiTenantIsolation is the acceptance scenario: three tenants
// (including botdetect) under fault injection on one shared stack. Every
// per-tenant invariant must hold despite the interleaved co-tenant traffic
// — no contribution counted in another tenant's sums, per-tenant rejection
// accounting exact — and the cross-tenant probes must all bounce.
func TestMultiTenantIsolation(t *testing.T) {
	rep, err := multiTenantScenario(TransportDirect).Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	for _, v := range rep.Violations {
		t.Errorf("cross-tenant violation: %s", v)
	}
	for _, tr := range rep.Reports {
		for _, v := range tr.Violations {
			t.Errorf("tenant %s violation: %s", tr.Scenario, v)
		}
		for _, rr := range tr.Rounds {
			if !rr.Exact {
				t.Errorf("tenant %s round %d aggregate not exact", tr.Scenario, rr.Round)
			}
		}
	}
	// The botdetect tenant must have exercised its distinguishing fault:
	// bot sessions refused in-enclave.
	bot := rep.Reports[2]
	if bot.Totals[CatClientRejected] == 0 {
		t.Error("botdetect tenant refused no bot sessions; raise ByzantineRate")
	}
	if bot.Totals[CatAccepted] == 0 {
		t.Error("botdetect tenant accepted no human sessions")
	}
}

// TestMultiTenantIsolationOverGaas runs the same scenario through the
// shared gaas front end: per-tenant enclave hosting resolved from the
// tenant-bearing hello, batches routed by the service name they carry.
func TestMultiTenantIsolationOverGaas(t *testing.T) {
	rep, err := multiTenantScenario(TransportTCP).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("cross-tenant violation: %s", v)
		}
		for _, tr := range rep.Reports {
			for _, v := range tr.Violations {
				t.Errorf("tenant %s violation: %s", tr.Scenario, v)
			}
		}
	}
}

// TestMultiTenantDeterministicPerSeed locks the acceptance criterion's
// determinism clause: per-tenant accept/reject/sum traces are a pure
// function of the seeds, concurrent co-tenants notwithstanding.
func TestMultiTenantDeterministicPerSeed(t *testing.T) {
	run := func() []string {
		t.Helper()
		rep, err := multiTenantScenario(TransportDirect).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Ok() {
			t.Fatalf("violations: %v", rep.Violations)
		}
		traces := make([]string, len(rep.Reports))
		for i, tr := range rep.Reports {
			traces[i] = tr.Trace()
		}
		return traces
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("tenant %d: same seeds produced different traces:\n--- first\n%s--- second\n%s",
				i, first[i], second[i])
		}
		if !strings.Contains(first[i], "rejected/") {
			t.Errorf("tenant %d exercised no service-side rejections:\n%s", i, first[i])
		}
	}
}

// TestBotdetectScenarioSingleTenant pins the botdetect workload in
// isolation: the exact sealed sum of each round is its human-session
// count (the one-bit verdict vector summed over accepted sessions).
func TestBotdetectScenarioSingleTenant(t *testing.T) {
	rep, err := Scenario{
		Name: "botdetect-solo",
		Config: Config{
			ServiceName: "bots.glimmers.example",
			Workload:    WorkloadBotdetect,
			Seed:        31, Devices: 6, Rounds: 3,
			Faults: FaultPlan{ByzantineRate: 0.4},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Totals[CatClientRejected] == 0 {
		t.Error("no bot sessions refused")
	}
	for _, rr := range rep.Rounds {
		if !rr.Exact {
			t.Errorf("round %d human count not exact", rr.Round)
		}
	}
}
