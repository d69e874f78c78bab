// Command glimmerd hosts a multi-tenant Glimmer-as-a-service daemon (§4.2
// of the paper): a TCP server whose tenant registry serves N services at
// once — each with its own validation predicate, contribution key, and
// aggregation rounds — under one shared round budget. Clients name their
// service in the hello and get a fresh enclave loaded from that tenant's
// configuration; submitted contribution batches are routed to their
// tenant's pipeline by the service name each contribution carries.
//
// The daemon assembles a self-contained demo deployment — a simulated
// attestation service, a platform, and the requested tenants — and prints
// the per-tenant measurements clients must pin. In a real deployment the
// services and attestation root would live elsewhere; the wire protocol
// (internal/gaas) is the same.
//
// Tenants: the -service/-dim flags define the primary tenant (a [0,1]
// range check over -dim weights); -tenants adds more, as a comma-separated
// list of name:dim (range-check tenant) or name:bot (the §4.1 bot
// detector: one-bit verdict contributions counting human sessions).
//
// The serving edge is governed for public exposure: TLS transport
// (-tls-self-signed, or -tls-cert/-tls-key for a CA-issued pair),
// connection caps (-max-conns, -max-conns-per-ip), per-connection
// deadlines (-read-timeout, -write-timeout, -idle-timeout), and load
// shedding for the ingest pipelines (-max-inflight-batches). Excess work
// is refused with a typed shed error, never queued into a hang.
// -write-known-hosts exports each tenant's measurement as a gaas
// known-hosts pin so clients can be provisioned without the TOFU leap of
// faith.
//
// Fleet mode shards rounds across several glimmerd processes: -node-id
// names this node on the consistent-hash ring, -peers lists the node set
// (id=addr pairs; batching clients route with the same ring via
// gaas.DialFleet), and -coordinator selects the merge role — "self"
// serves the fleet-merge command from an in-process merge hub (TOFU node
// pinning), while host:port ships this node's signed partial seals to a
// remote coordinator when the daemon drains. The fleet plane
// (fleet-forward for peer batches, fleet-merge for partial seals) mounts
// whenever either flag is set.
//
// On SIGINT/SIGTERM the daemon stops accepting, drains in-flight batches,
// seals every open round, and prints per-tenant sealed sums, rejection
// counters, the edge governance counters, and — in fleet mode — the node
// role and partial-seal merge counters before exiting.
//
// Usage:
//
//	glimmerd -listen 127.0.0.1:7433 -dim 16 -workers 8 -shards 32 \
//	  -tls-self-signed -max-conns 4096 -max-conns-per-ip 64 \
//	  -tenants sensors.example:8,webservice.example:bot
//
//	glimmerd -listen 127.0.0.1:7441 -node-id 1 \
//	  -peers 1=127.0.0.1:7441,2=127.0.0.1:7442,3=127.0.0.1:7443 \
//	  -coordinator 127.0.0.1:7450
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"glimmers/internal/durable"
	"glimmers/internal/node"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, stop); err != nil {
		log.Fatalf("glimmerd: %v", err)
	}
}

// run is the whole daemon: flags → node.Config → node.Start → wait for a
// stop signal → Drain → print the Report.
func run(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	// Flags that are node.Config fields parse straight into it.
	var cfg node.Config
	fs := flag.NewFlagSet("glimmerd", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7433", "address to listen on")
	dim := fs.Int("dim", 16, "primary tenant's contribution dimensionality")
	serviceName := fs.String("service", "demo.glimmers.example", "primary tenant's service name")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "goroutines one large frame is verified on (a round keeps none between frames)")
	shards := fs.Int("shards", 0, "dedup/sum shards per round (0 = 2×workers)")
	tenants := fs.String("tenants", "", "extra tenants: name:dim or name:bot, comma-separated")
	fs.IntVar(&cfg.MaxTotalRounds, "max-total-rounds", service.DefaultMaxTotalRounds,
		"shared budget: live rounds across all tenants")
	ticketTTL := fs.Int64("ticket-ttl", service.DefaultTicketTTL,
		"session-ticket lifetime in seconds (0 disables the MAC fast path)")
	fs.StringVar(&cfg.StateDir, "state-dir", "",
		"durable state directory: recover snapshot+WAL on start, snapshot on shutdown (empty disables)")
	fs.IntVar(&cfg.WAL.FlushBytes, "wal-flush-bytes", durable.DefaultFlushBytes,
		"WAL group-commit: staged bytes that trigger an early flush (4x this applies ingest backpressure)")
	fs.DurationVar(&cfg.WAL.FlushInterval, "wal-flush-interval", durable.DefaultFlushInterval,
		"WAL group-commit: max time an async record stays staged — the crash-loss window for unsealed accepts")
	edge := &cfg.Edge
	fs.DurationVar(&edge.IdleTimeout, "idle-timeout", node.DefaultIdleTimeout,
		"reap connections idle longer than this (0 disables)")
	fs.DurationVar(&edge.ReadTimeout, "read-timeout", node.DefaultReadTimeout,
		"reap connections that take longer than this to deliver one started frame (0 disables)")
	fs.DurationVar(&edge.WriteTimeout, "write-timeout", node.DefaultWriteTimeout,
		"fail reply writes that take longer than this (0 disables)")
	fs.IntVar(&edge.MaxConns, "max-conns", node.DefaultMaxConns,
		"concurrently served connections; excess is refused with a shed error (0 = unlimited)")
	fs.IntVar(&edge.MaxConnsPerIP, "max-conns-per-ip", node.DefaultMaxConnsPerIP,
		"concurrently served connections per client IP (0 = unlimited)")
	fs.IntVar(&edge.MaxInflightBatches, "max-inflight-batches", node.DefaultMaxInflightBatches,
		"contribution batches concurrently inside the pipelines; excess is shed (0 = unlimited)")
	tlsSelfSigned := fs.Bool("tls-self-signed", false,
		"serve TLS with a fresh self-signed cert (transport privacy; client trust stays with attestation)")
	tlsCert := fs.String("tls-cert", "", "serve TLS with this certificate file (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "TLS private key file for -tls-cert")
	writeKnownHosts := fs.String("write-known-hosts", "",
		"write each tenant's measurement pin to this gaas known-hosts file and continue serving")
	nodeID := fs.Uint("node-id", 0,
		"fleet: this node's ring identity (0 = standalone; required with -peers)")
	peers := fs.String("peers", "",
		"fleet: the full node set as id=host:port pairs, comma-separated (must include -node-id)")
	coordinator := fs.String("coordinator", "",
		`fleet: "self" serves the fleet-merge command here; host:port ships this node's partial seals there on drain`)
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns

	switch {
	case *dim <= 0:
		return fmt.Errorf("-dim must be positive, got %d", *dim)
	case *workers <= 0:
		return fmt.Errorf("-workers must be positive, got %d", *workers)
	case *shards < 0:
		return fmt.Errorf("-shards must be non-negative, got %d", *shards)
	case cfg.MaxTotalRounds <= 0:
		return fmt.Errorf("-max-total-rounds must be positive, got %d", cfg.MaxTotalRounds)
	case *serviceName == "":
		return fmt.Errorf("-service must not be empty")
	case *ticketTTL < 0:
		return fmt.Errorf("-ticket-ttl must be non-negative, got %d", *ticketTTL)
	case edge.IdleTimeout < 0 || edge.ReadTimeout < 0 || edge.WriteTimeout < 0:
		return fmt.Errorf("timeouts must be non-negative")
	case edge.MaxConns < 0 || edge.MaxConnsPerIP < 0 || edge.MaxInflightBatches < 0:
		return fmt.Errorf("connection and batch caps must be non-negative")
	case cfg.WAL.FlushBytes <= 0 || cfg.WAL.FlushInterval <= 0:
		return fmt.Errorf("-wal-flush-bytes and -wal-flush-interval must be positive")
	case *tlsSelfSigned && (*tlsCert != "" || *tlsKey != ""):
		return fmt.Errorf("-tls-self-signed and -tls-cert/-tls-key are mutually exclusive")
	case (*tlsCert == "") != (*tlsKey == ""):
		return fmt.Errorf("-tls-cert and -tls-key must be set together")
	case *nodeID > uint(^uint32(0)):
		return fmt.Errorf("-node-id must fit in 32 bits, got %d", *nodeID)
	case *coordinator != "" && *coordinator != "self" && *nodeID == 0:
		return fmt.Errorf("shipping partial seals (-coordinator host:port) requires -node-id")
	}
	cfg.NodeID = uint32(*nodeID)
	peerNodes, err := parsePeers(*peers, cfg.NodeID)
	if err != nil {
		return fmt.Errorf("-peers: %v", err)
	}
	cfg.ShardCount = uint32(len(peerNodes))
	specs, err := parseTenants(*tenants)
	if err != nil {
		return fmt.Errorf("-tenants: %v", err)
	}
	specs = append([]tenantSpec{{name: *serviceName, dim: *dim}}, specs...)

	as, err := tee.NewAttestationService()
	if err != nil {
		return fmt.Errorf("attestation service: %v", err)
	}
	if edge.Platform, err = tee.NewPlatform(as); err != nil {
		return fmt.Errorf("platform: %v", err)
	}
	for _, spec := range specs {
		tc, err := tenantConfig(as, spec, *workers, *shards, *ticketTTL)
		if err != nil {
			return fmt.Errorf("tenant %q: %v", spec.name, err)
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}
	if edge.TLS, err = tlsConfig(*listen, *tlsSelfSigned, *tlsCert, *tlsKey); err != nil {
		return fmt.Errorf("tls: %v", err)
	}
	// Fleet role: "self" serves merges from an in-process hub (TOFU node
	// pinning); any other coordinator is where this node's partial seals
	// ship on drain. The node signing key is per-process — coordinators
	// pin it on first use, so a later key swap under the same node id is
	// refused.
	if *coordinator == "self" {
		cfg.Hub = &service.MergeHub{AllowTOFU: true}
	} else {
		cfg.Coordinator = *coordinator
	}
	if cfg.NodeID != 0 {
		if cfg.SealKey, err = xcrypto.NewSigningKey(); err != nil {
			return fmt.Errorf("fleet node key: %v", err)
		}
	}
	if cfg.Listener, err = net.Listen("tcp", *listen); err != nil {
		return fmt.Errorf("listen: %v", err)
	}
	n, err := node.Start(cfg)
	if err != nil {
		return err
	}
	out := printer{stdout}
	out.status(n, cfg, *workers, *coordinator)
	if *writeKnownHosts != "" {
		if err := out.writePins(*writeKnownHosts, n.Registry().Tenants()); err != nil {
			n.Kill()
			return fmt.Errorf("known hosts: %v", err)
		}
	}

	// Graceful shutdown: stop accepting, drain in-flight batches, seal,
	// ship, snapshot — then report what the node held.
	select {
	case sig := <-stop:
		out.say("%v: stopping accept loop, draining in-flight batches", sig)
	case <-n.Done(): // the accept loop died on its own; Drain reports why
	}
	rep, err := n.Drain()
	out.report(rep, cfg.StateDir)
	return err
}
