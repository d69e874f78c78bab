// Quickstart: the smallest complete Glimmer deployment.
//
// It assembles a testbed (attestation root, platform, service), provisions
// one Glimmer with a [0,1] range-check predicate, pushes an honest and a
// malicious contribution through it, and verifies the signed result the
// way the service would.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"

	"glimmers"
	"glimmers/internal/glimmer"
)

func main() {
	const dim = 4

	// 1. A testbed: attestation service, one client platform, one cloud
	//    service that wants weights in [0, 1].
	tb, err := glimmers.NewTestbed("quickstart.example", glimmers.UnitRangeCheck("unit-range", dim))
	if err != nil {
		log.Fatal(err)
	}

	// 2. Load and provision a Glimmer on the client platform. The testbed
	//    vets the measurement and runs the attested provisioning protocol.
	dev, err := tb.NewProvisionedDevice(dim, glimmers.ModeNone)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("glimmer measurement: %s\n", dev.Measurement())

	// 3. An honest contribution is validated, signed, and endorsed.
	honest := glimmers.FromFloats([]float64{0.1, 0.9, 0.5, 0.0})
	sc, err := dev.Contribute(1, honest, nil)
	if err != nil {
		log.Fatal(err)
	}
	ok := tb.Service.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature)
	fmt.Printf("honest contribution: signed=%v round=%d\n", ok, sc.Round)

	// 4. The paper's 538 attack is refused inside the enclave; the value
	//    never leaves the device.
	malicious := glimmers.FromFloats([]float64{0.1, 538, 0.5, 0.0})
	_, err = dev.Contribute(2, malicious, nil)
	fmt.Printf("malicious contribution rejected: %v\n", errors.Is(err, glimmer.ErrRejected))

	// 5. The service aggregates only endorsed contributions.
	reg := glimmers.NewRegistry(0)
	tenant, err := reg.AddTenant(glimmers.TenantConfig{
		Name:    tb.Service.Name(),
		Verify:  tb.Service.ContributionVerifyKey(),
		Dim:     dim,
		Workers: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	tenant.Manager().Vet(dev.Measurement())
	if err := reg.Ingest(glimmers.EncodeSignedContribution(sc)); err != nil {
		log.Fatal(err)
	}
	agg := tenant.Manager().Round(1)
	fmt.Printf("aggregator accepted %d contribution(s); sum[1] = %s\n", agg.Count(), agg.Sum()[1])
}
