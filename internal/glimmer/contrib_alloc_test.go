package glimmer_test

import (
	"runtime"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/race"
)

// contributeBytesMeasured is what one Device.Contribute at dim 64 allocates,
// measured by this test's own loop (5,699–5,703 B over three runs; 11,807 B
// before the signature became Ed25519, 14,415 B at commit 9560e9c).
const contributeBytesMeasured = 5700

// TestContributeBytesAllocated holds the signed contribute path — what a
// live device runs per contribution — within 10% of that figure. Most of
// what remains is the enclave boundary copies, which model ECALL marshalling
// and stay; the signer's share is 240 B (xcrypto's BenchmarkSign).
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
	dev, err := svc.NewDevice(platform, cfg)
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
	t.Logf("Device.Contribute at dim %d: %d B allocated per call (measured: %d)", dim64, got, contributeBytesMeasured)
	if limit := uint64(contributeBytesMeasured) * 11 / 10; got > limit {
		t.Errorf("Device.Contribute allocates %d B per call, want at most %d (110%% of %d)", got, limit, contributeBytesMeasured)
	}
}
