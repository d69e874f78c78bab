// GaaS: Glimmer-as-a-service (§4.2) — an IoT thermostat without a TEE uses
// a Glimmer hosted on another machine.
//
// The host (think: a set-top box, a university server, the EFF) runs
// glimmerd's assembly (internal/node) with its hardened serving edge: TLS
// transport, connection caps, and per-connection deadlines around the
// attested session protocol. The
// thermostat dials it with DialContext, verifies the enclave quote against
// the attestation root, and pins the measurement trust-on-first-use in a
// known-hosts store — a host that later swaps the enclave is refused loudly.
// The host relays ciphertext and learns nothing.
//
// Run with: go run ./examples/gaas
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"glimmers"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/node"
	"glimmers/internal/predicate"
)

func main() {
	const dim = 8 // eight temperature readings, each normalized to [0,1]

	// The service accepts normalized sensor vectors.
	tb, err := glimmers.NewTestbed("thermostats.example", predicate.UnitRangeCheck("sensor-range", dim))
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := tb.Service.GlimmerConfig(dim, glimmers.ModeNone, glimmers.DefaultPolicy)
	if err != nil {
		log.Fatal(err)
	}

	// The neutral host machine runs what glimmerd runs (internal/node):
	// the service is a tenant whose Glimmer the node loads and provisions
	// for each remote session, and the node is also the ingest front door
	// — batches of signed contributions are routed to the tenant's
	// concurrent sharded pipeline.
	//
	// The public edge: TLS for transport privacy (trust stays with
	// attestation, so a self-signed cert is fine), deadlines so a stalled
	// peer cannot pin an enclave slot, and caps so a flood is shed with an
	// error instead of queueing forever — glimmerd's defaults.
	tlsConf, err := gaas.SelfSignedServerTLS("127.0.0.1")
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hosted := glimmer.BuildBinary(cfg).Measurement()
	tb.Service.Vet(hosted)
	host, err := node.Start(node.Config{
		Tenants: []glimmers.TenantConfig{{
			Name:        tb.Service.Name(),
			Verify:      tb.Service.ContributionVerifyKey(),
			Dim:         dim,
			Vetted:      []glimmers.Measurement{hosted},
			EvictAtCap:  node.DefaultEvictAtCap,
			RoundWindow: node.DefaultRoundWindow,
			Glimmer:     cfg,
			Provision:   tb.Service.ProvisionDevice,
		}},
		Listener: ln,
		Edge: gaas.ServerConfig{
			Platform:           tb.Platform,
			TLS:                tlsConf,
			ReadTimeout:        node.DefaultReadTimeout,
			WriteTimeout:       node.DefaultWriteTimeout,
			IdleTimeout:        node.DefaultIdleTimeout,
			MaxConns:           node.DefaultMaxConns,
			MaxConnsPerIP:      node.DefaultMaxConnsPerIP,
			MaxInflightBatches: node.DefaultMaxInflightBatches,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Drain() //nolint:errcheck // the transcript is the example
	fmt.Printf("glimmer host serving TLS on %s (measurement %s)\n", ln.Addr(), hosted)

	// The IoT device: no TEE. The quote verifier checks the enclave is
	// genuine; the known-hosts store pins whatever measurement the service
	// presents on first use, so this first connection is the trust
	// decision — every later one is held to it.
	verifier := &glimmers.QuoteVerifier{Root: tb.AS.Root()}
	known := gaas.NewKnownHosts() // file-backed in production: gaas.LoadKnownHosts(path)
	dialCfg := gaas.DialConfig{
		Service:          tb.Service.Name(),
		Verifier:         verifier,
		KnownHosts:       known,
		TLS:              gaas.InsecureClientTLS(),
		DialTimeout:      5 * time.Second,
		HandshakeTimeout: 5 * time.Second,
		CallTimeout:      10 * time.Second,
	}
	client, err := gaas.DialContext(context.Background(), ln.Addr().String(), dialCfg)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	fmt.Printf("thermostat: remote glimmer attested over TLS, measurement pinned (%s)\n",
		client.Measurement())

	readings := glimmers.FromFloats([]float64{0.42, 0.43, 0.44, 0.45, 0.44, 0.43, 0.42, 0.41})
	sc, err := client.Contribute(1, readings, nil)
	if err != nil {
		log.Fatal(err)
	}
	ok := tb.Service.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature)
	fmt.Printf("thermostat: readings endorsed remotely, signature valid = %v\n", ok)

	// The endorsed contribution goes back through the host in one batch
	// frame and lands in the round's aggregation pipeline.
	accepted, rejected, err := client.SubmitBatch([][]byte{glimmers.EncodeSignedContribution(sc)})
	if err != nil {
		log.Fatal(err)
	}
	tenant, _ := host.Registry().Tenant(tb.Service.Name())
	round1, _ := tenant.Manager().Lookup(1)
	fmt.Printf("thermostat: batch submitted, accepted=%d rejected=%d; round 1 count = %d\n",
		accepted, rejected, round1.Count())

	// A compromised thermostat trying to report a 900-degree reading is
	// refused by the remote Glimmer.
	bogus := glimmers.FromFloats([]float64{900, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4})
	_, err = client.Contribute(2, bogus, nil)
	fmt.Printf("thermostat: bogus reading rejected remotely = %v\n", errors.Is(err, gaas.ErrRejected))

	// The TOFU pin doing its job: a device whose store pins a different
	// measurement for this service refuses the (genuine!) enclave before
	// any private data moves.
	stale := gaas.NewKnownHosts()
	_ = stale.Pin(tb.Service.Name(), glimmers.Measurement{0xBB})
	staleCfg := dialCfg
	staleCfg.KnownHosts = stale
	_, err = gaas.DialContext(context.Background(), ln.Addr().String(), staleCfg)
	fmt.Printf("thermostat with stale pin: refused swapped measurement = %v\n",
		errors.Is(err, gaas.ErrMeasurementMismatch))
}
