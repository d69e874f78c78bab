package glimmer

import "glimmers/internal/tee"

// Host-side handles only tests use. The enclave commands behind them are in
// the Glimmer's ECALL table; the tests in glimmer_test reach them here.

// PairwisePub fetches the enclave's pairwise-blinding public key.
func (d *Device) PairwisePub() ([]byte, error) {
	return d.enclave.Call("pairwise-pub", nil)
}

// ExportState seals the Glimmer's provisioned state for offline storage.
func (d *Device) ExportState() ([]byte, error) {
	return d.enclave.Call("export-state", nil)
}

// RestoreState reinstalls sealed state into a freshly loaded Glimmer,
// skipping the service provisioning round trip. Blinding material is
// deliberately not persisted: dealer masks are single-use and pairwise
// state is re-established per cohort.
func (d *Device) RestoreState(blob []byte) error {
	_, err := d.enclave.Call("restore-state", blob)
	return err
}

// Enclave exposes the component's enclave, for direct ECALLs.
func (c *Component) Enclave() *tee.Enclave { return c.enclave }
