package glimmer_test

import (
	"runtime"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/race"
)

// contributeBytesAt9560e9c is what one Device.Contribute at dim 64
// allocated at commit 9560e9c, measured by this test's own loop there
// (14,413–14,418 B over three runs): the request writer doubling through
// its lanes, the signed fields encoded twice, and a preimage copy the
// caller discards.
const contributeBytesAt9560e9c = 14415

// TestContributeBytesAllocated holds the signed contribute path — what a
// live device runs per contribution — at least 10% under that figure. Most
// of what remains is crypto/ecdsa's own and the enclave boundary copies,
// which model ECALL marshalling and stay.
func TestContributeBytesAllocated(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim64 = 64
	_, platform, svc := newWorld(t)
	if err := svc.SetPredicate(predicate.UnitRangeCheck("unit-range", dim64)); err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim64, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := svc.NewDevice(platform, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Destroy()
	value := fixed.NewVector(dim64)
	for i := range value {
		value[i] = fixed.FromFloat(0.5)
	}
	contribute := func(round uint64) {
		if _, err := dev.Contribute(round, value, nil); err != nil {
			t.Fatal(err)
		}
	}
	contribute(0) // pools warm
	const runs = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := uint64(1); i <= runs; i++ {
		contribute(i)
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Device.Contribute at dim %d: %d B allocated per call (9560e9c: %d)", dim64, got, contributeBytesAt9560e9c)
	if limit := uint64(contributeBytesAt9560e9c) * 9 / 10; got > limit {
		t.Errorf("Device.Contribute allocates %d B per call, want at most %d (90%% of %d)", got, limit, contributeBytesAt9560e9c)
	}
}
