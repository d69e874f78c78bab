package sim

import "testing"

// TestSimFleet places a tenant's rounds on a three-node fleet, each node
// admitting only the rounds it owns, and drives it through an owner's
// crash (with durable recovery), a network partition, a cross-node client
// retry, and a battery of forged/split/replayed/late seal probes. Merged
// sums must equal the exact sums, and every refusal anywhere in the fleet
// must reconcile. Run under -race in CI.
func TestSimFleet(t *testing.T) {
	rep, err := RunFleet(t.TempDir(), FleetConfig{Seed: 41 + *seedOffset})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violation: %s", v)
	}
	if rep.MergedRounds != 6 {
		t.Errorf("merged rounds = %d, want 6", rep.MergedRounds)
	}
	if !rep.DoubleSubmitCaught {
		t.Error("a client's cross-node retry was not refused at the non-owner and as a duplicate at the owner")
	}
	if rep.RecoverCrash.TruncatedBytes != 7 {
		t.Errorf("truncated %d bytes, want the 7-byte torn tail", rep.RecoverCrash.TruncatedBytes)
	}
	t.Logf("owners: %v", rep.Owner)
	t.Logf("recovery: %+v", rep.RecoverCrash)
	t.Logf("merged=%d contribs=%d rejected=%d refused=%d",
		rep.MergedRounds, rep.MergedContribs, rep.RejectedTotal, rep.RefusedSeals)
}

// TestSimFleetDeterministic: two runs with the same seed must merge
// byte-identical sums for every round — the scenario is a reproducible
// fault plan, not a flake generator.
func TestSimFleetDeterministic(t *testing.T) {
	a, err := RunFleet(t.TempDir(), FleetConfig{Seed: 7 + *seedOffset, Devices: 7, Dim: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(t.TempDir(), FleetConfig{Seed: 7 + *seedOffset, Devices: 7, Dim: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*FleetReport{a, b} {
		for _, v := range rep.Violations {
			t.Errorf("invariant violation: %s", v)
		}
	}
	if len(a.SumDigests) == 0 || len(a.SumDigests) != len(b.SumDigests) {
		t.Fatalf("digest maps differ in size: %d vs %d", len(a.SumDigests), len(b.SumDigests))
	}
	for round, da := range a.SumDigests {
		if db := b.SumDigests[round]; da != db {
			t.Errorf("round %d: sums diverge across identical seeds (%s vs %s)", round, da, db)
		}
	}
	for round, oa := range a.Owner {
		if ob := b.Owner[round]; oa != ob {
			t.Errorf("round %d: placement diverges across identical seeds (%d vs %d)", round, oa, ob)
		}
	}
}
