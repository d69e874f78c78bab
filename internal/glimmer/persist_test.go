package glimmer_test

import (
	"errors"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
)

func TestSealedStateSurvivesEnclaveTeardown(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	blob, err := dev.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	dev.Destroy()

	// A freshly loaded enclave restores without any service round trip.
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	sc, err := fresh.Contribute(1, fixed.FromFloats([]float64{0.1, 0.2, 0.3, 0.4}), nil)
	if err != nil {
		t.Fatalf("contribute after restore: %v", err)
	}
	if !svc.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature) {
		t.Fatal("restored glimmer produced an unverifiable signature")
	}
	// Validation still enforced after restore.
	if _, err := fresh.Contribute(2, fixed.FromFloats([]float64{538, 0, 0, 0}), nil); !errors.Is(err, glimmer.ErrRejected) {
		t.Fatalf("538 after restore: err = %v", err)
	}
}

func TestSealedStateRejectsOtherBinary(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	blob, err := dev.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// A Glimmer with a different config (hence measurement) cannot unseal.
	otherCfg, err := svc.GlimmerConfig(dim+1, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	other, err := glimmer.NewDevice(platform, otherCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(blob); err == nil {
		t.Fatal("different measurement restored the sealed state")
	}
}

func TestSealedStateRejectsOtherPlatform(t *testing.T) {
	as, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	blob, err := dev.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	otherPlatform, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	other, err := glimmer.NewDevice(otherPlatform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RestoreState(blob); err == nil {
		t.Fatal("sealed state migrated to another platform")
	}
}

func TestSealedStateRejectsTampering(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	blob, err := dev.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 1
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(blob); err == nil {
		t.Fatal("tampered sealed state restored")
	}
}

func TestSealedStateRollbackDetected(t *testing.T) {
	_, platform, svc := newWorld(t)
	dev := provisionedDevice(t, platform, svc, glimmer.ModeNone)
	oldBlob, err := dev.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// A second export bumps the epoch; the old blob becomes stale.
	if _, err := dev.ExportState(); err != nil {
		t.Fatal(err)
	}
	dev.Destroy()
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(oldBlob); !errors.Is(err, glimmer.ErrState) {
		t.Fatalf("rollback err = %v, want ErrState", err)
	}
}

func TestExportRequiresProvisioning(t *testing.T) {
	_, platform, svc := newWorld(t)
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := glimmer.NewDevice(platform, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dev.ExportState(); !errors.Is(err, glimmer.ErrNotProvisioned) {
		t.Fatalf("err = %v, want ErrNotProvisioned", err)
	}
}
