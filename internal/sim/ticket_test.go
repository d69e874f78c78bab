package sim

import (
	"strings"
	"testing"
)

// TestSimTicketedSoakAllFaults is the ticketed twin of the all-faults
// soak: the fleet establishes session tickets (one signature verification per
// device) and MACs every contribution, under every fault mechanism at
// once — a corrupted submission is now a flipped MAC — plus the four
// ticket probes (forged MAC, tight window, ghost tenant, expiry) before
// the final accounting reconciliation. Run under -race in CI.
func TestSimTicketedSoakAllFaults(t *testing.T) {
	devices, rounds := soakScale(t)
	rep, err := Scenario{
		Name: "soak-ticketed-all-faults",
		Config: Config{
			Seed:     43,
			Devices:  devices,
			Rounds:   rounds,
			Overlap:  2,
			Dim:      8,
			Ticketed: true,
			Faults:   fullFaultPlan(),
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
	for _, rr := range rep.Rounds {
		if !rr.Exact {
			t.Errorf("round %d aggregate not exact", rr.Round)
		}
	}
	// Every ticket probe must have fired and been booked.
	for _, cat := range []string{
		CatRejectedForgedMAC,
		CatRejectedTicketWindow,
		CatRejectedExpiredTicket,
		CatRejectedUnknownTenant,
	} {
		if rep.Totals[cat] != 1 {
			t.Errorf("probe category %s = %d, want 1 (%v)", cat, rep.Totals[cat], rep.Totals)
		}
	}
}

// TestSimTicketedOverGaas drives the ticketed fleet through the full gaas
// frame protocol: grants over the ticket-grant command on a pooled
// connection, MAC'd batches over submit-batch.
func TestSimTicketedOverGaas(t *testing.T) {
	rep, err := Scenario{
		Name: "ticketed-gaas",
		Config: Config{
			Seed:      11,
			Devices:   8,
			Rounds:    3,
			Overlap:   2,
			Dim:       6,
			Transport: TransportTCP,
			Ticketed:  true,
			Faults: FaultPlan{
				DropoutRate:    0.15,
				CorruptSigRate: 0.15,
				DuplicateRate:  0.25,
				ReplayRate:     0.25,
			},
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestSimTicketedReproducibleTrace: the ticketed trace (probes included)
// is a pure function of the seed, and the ticketed and signed modes accept
// the same honest workload (same plan, same accepted counts and sums —
// only the authenticator changed).
func TestSimTicketedReproducibleTrace(t *testing.T) {
	cfg := Config{
		Seed:     7,
		Devices:  8,
		Rounds:   3,
		Overlap:  2,
		Dim:      6,
		Ticketed: true,
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
	run := func(c Config, name string) string {
		t.Helper()
		rep, err := Scenario{Name: name, Config: c}.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range rep.Violations {
			t.Errorf("%s invariant violation: %s", name, v)
		}
		return rep.Trace()
	}
	first, second := run(cfg, "repro-ticketed"), run(cfg, "repro-ticketed")
	if first != second {
		t.Fatalf("same seed produced different ticketed traces:\n--- first\n%s--- second\n%s", first, second)
	}
	if !strings.Contains(first, CatRejectedForgedMAC) {
		t.Fatalf("ticketed trace missing probe bookkeeping:\n%s", first)
	}

	// The signed-mode run of the same plan seals identical sums: the fast
	// path changes the authenticator, never the aggregate.
	signed := cfg
	signed.Ticketed = false
	signedTrace := run(signed, "repro-signed")
	stripped := func(trace string) []string {
		var rounds []string
		for _, line := range strings.Split(trace, "\n") {
			if strings.HasPrefix(line, "round ") {
				// Keep the per-round "accepted=… sum=…" facts, which must
				// agree across modes; drop the tallies (the ticketed run
				// books probe categories the signed run has no reason to).
				if cut := strings.Index(line, " ["); cut >= 0 {
					line = line[:cut]
				}
				rounds = append(rounds, line)
			}
		}
		return rounds
	}
	tk, sg := stripped(first), stripped(signedTrace)
	if len(tk) != len(sg) {
		t.Fatalf("round count diverges across modes: %d vs %d", len(tk), len(sg))
	}
	for i := range tk {
		if tk[i] != sg[i] {
			t.Errorf("round outcome diverges across authenticator modes:\nticketed: %s\n  signed: %s", tk[i], sg[i])
		}
	}
}

// TestMultiTenantTicketedMix runs a ticketed tenant, a signed tenant, and
// a ticketed botdetect tenant concurrently on one substrate: per-tenant
// exactness, shared-budget accounting, and the cross-tenant isolation
// probes (which now splice MAC'd contributions across tenants) must all
// hold with the two authentication modes interleaved.
func TestMultiTenantTicketedMix(t *testing.T) {
	rep, err := MultiScenario{
		Name: "ticketed-mix",
		Tenants: []Config{
			{Devices: 8, Rounds: 3, Overlap: 2, Dim: 6, Ticketed: true,
				Faults: FaultPlan{CorruptSigRate: 0.15, DuplicateRate: 0.3, GarbageRate: 0.2}},
			{Devices: 8, Rounds: 3, Overlap: 2, Dim: 4,
				Faults: FaultPlan{DropoutRate: 0.2, ReplayRate: 0.3}},
			{Devices: 8, Rounds: 2, Workload: WorkloadBotdetect, Ticketed: true,
				Faults: FaultPlan{ByzantineRate: 0.25}},
		},
	}.Run()
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
	}
}
