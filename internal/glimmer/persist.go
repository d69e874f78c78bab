package glimmer

import (
	"fmt"

	"glimmers/internal/predicate"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Sealed persistence (§3): "The signing key used can be provided by the
// service, and sealed (using the SGX sealing facility) to the Glimmer code,
// so that it is only available to instances of Glimmer enclaves."
//
// The "export-state" ECALL seals the provisioned signing key and predicate
// to the enclave's measurement; the host stores the opaque blob and hands
// it to a freshly loaded enclave's "restore-state" ECALL after a reboot —
// no service round trip required. The blob is useless to the host, to
// other binaries, and on other platforms; rollback across re-provisionings
// is caught by a monotonic counter baked into the sealed payload.

const sealEpochCounter = "seal-epoch"

// sealedStateAAD binds sealed blobs to their purpose and format version.
var sealedStateAAD = []byte("glimmers/sealed-state/v1")

// ecallExportState seals the provisioned state to the Glimmer measurement.
func ecallExportState(env *tee.Env, _ []byte) ([]byte, error) {
	prog, analysis, signKey, err := provisionedState(env)
	if err != nil {
		return nil, err
	}
	_ = analysis // re-derived on restore; the predicate is re-verified
	keyDER, err := signKey.Marshal()
	if err != nil {
		return nil, fmt.Errorf("glimmer: export: %w", err)
	}
	// A fresh epoch for every export: restoring an older blob than the
	// newest export fails, bounding rollback.
	epoch := env.CounterIncrement(sealEpochCounter)
	payload := wire.NewWriter().
		Uint64(epoch).
		Bytes(keyDER).
		Bytes(predicate.Encode(prog)).
		Finish()
	return env.Seal(payload, sealedStateAAD, tee.SealToMeasurement)
}

// ecallRestoreState reinstalls state from a sealed blob. The predicate is
// re-verified against the measured policy — sealing protects
// confidentiality and integrity, but installation policy is enforced on
// every load regardless.
func ecallRestoreState(env *tee.Env, input []byte) ([]byte, error) {
	cfg, err := configOf(env)
	if err != nil {
		return nil, err
	}
	payload, err := env.Unseal(input, sealedStateAAD, tee.SealToMeasurement)
	if err != nil {
		return nil, fmt.Errorf("%w: unseal: %v", ErrBadRequest, err)
	}
	r := wire.NewReader(payload)
	epoch := r.Uint64()
	keyDER := r.Bytes()
	progBytes := r.Bytes()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: sealed payload: %v", ErrBadRequest, err)
	}
	if latest := env.CounterRead(sealEpochCounter); epoch != latest {
		return nil, fmt.Errorf("%w: sealed state epoch %d is not the latest (%d) — possible rollback",
			ErrState, epoch, latest)
	}
	signKey, err := xcrypto.ParseSigningKey(keyDER)
	if err != nil {
		return nil, fmt.Errorf("%w: sealed key: %v", ErrBadRequest, err)
	}
	if err := installPredicate(env, cfg, ProvisionPayload{Predicate: progBytes}); err != nil {
		return nil, err
	}
	return nil, env.PutObject(objSignKey, signKey)
}
