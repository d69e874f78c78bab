package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"glimmers/internal/audit"
	"glimmers/internal/durable"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// serviceName is the one tenant every workload drives.
const serviceName = "bench.glimmers.example"

// trustRoot is the part of a deployment that cannot cross a process
// boundary — the attestation root and the service's provisioned keys —
// which is why the benchmark assembles glimmerd's stack in-process
// instead of spawning the daemon.
type trustRoot struct {
	as      *tee.AttestationService
	svc     *service.Service
	cfg     glimmer.Config
	meas    tee.Measurement
	payload glimmer.ProvisionPayload
	dim     int
}

func newTrustRoot(dim int) (*trustRoot, error) {
	as, err := tee.NewAttestationService()
	if err != nil {
		return nil, err
	}
	svc, err := service.New(serviceName, as.Root())
	if err != nil {
		return nil, err
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("unit-range", dim)); err != nil {
		return nil, err
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		return nil, err
	}
	meas := glimmer.BuildBinary(cfg).Measurement()
	svc.Vet(meas)
	payload, err := svc.BasePayload()
	if err != nil {
		return nil, err
	}
	return &trustRoot{as: as, svc: svc, cfg: cfg, meas: meas, payload: payload, dim: dim}, nil
}

// newDevice is the client half of the trust path: load a Glimmer enclave
// and run the attested provisioning protocol against the service.
func (tr *trustRoot) newDevice(p *tee.Platform) (*glimmer.Device, error) {
	dev, err := glimmer.NewDevice(p, tr.cfg)
	if err != nil {
		return nil, err
	}
	if err := tr.svc.Provision(dev, tr.payload); err != nil {
		dev.Destroy()
		return nil, err
	}
	return dev, nil
}

// hosted is the registry with its one tenant's round manager.
type hosted struct {
	registry *service.Registry
	manager  *service.RoundManager
}

// finish retires a round whose sum has been consumed.
func (h *hosted) finish(round uint64) {
	h.manager.Close(round)
	h.manager.Forget(round)
}

// node is one glimmerd: registry, WAL, governed TLS server, listener.
type node struct {
	*running
	*hosted
	store    *durable.Store
	dir      string
	auditLog *os.File
	seal     service.NodeSeal // fleet identity; zero when standalone
}

// nodeOpts are the glimmerd flags a workload sets; everything else is the
// daemon's default.
type nodeOpts struct {
	id         uint32 // -node-id; 0 = standalone
	maxTickets int    // 0 = service.DefaultMaxTickets
	dir        string // -state-dir
}

// glimmerd's flag defaults, restated here because they live in its main
// package. If cmd/glimmerd changes one, change it here too.
const (
	readTimeout   = 30 * time.Second
	writeTimeout  = 30 * time.Second
	idleTimeout   = 2 * time.Minute
	maxConns      = 4096
	maxConnsPerIP = 64
	maxInflight   = 256
	roundWindow   = 16
)

// newRegistry registers the tenant exactly as glimmerd's addTenant does.
func (tr *trustRoot) newRegistry(maxTickets int) (*hosted, error) {
	registry := service.NewRegistry(service.DefaultMaxTotalRounds)
	tenant, err := registry.AddTenant(service.TenantConfig{
		Name:         serviceName,
		Verify:       tr.svc.ContributionVerifyKey(),
		Dim:          tr.dim,
		TicketPolicy: &service.TicketConfig{TTL: service.DefaultTicketTTL, MaxTickets: maxTickets},
		Workers:      runtime.GOMAXPROCS(0),
		EvictAtCap:   true,
		RoundWindow:  roundWindow,
		Glimmer:      tr.cfg,
		Provision: func(dev *glimmer.Device) error {
			return tr.svc.Provision(dev, tr.payload)
		},
	})
	if err != nil {
		return nil, err
	}
	tenant.Manager().Vet(tr.meas)
	return &hosted{registry, tenant.Manager()}, nil
}

// openStore opens and recovers a state directory at glimmerd's default
// flush tuning, with the daemon's audit log attached.
func openStore(dir string, registry *service.Registry) (*durable.Store, *os.File, durable.RecoverStats, error) {
	store, err := durable.OpenConfig(dir, durable.Config{
		FlushBytes:    durable.DefaultFlushBytes,
		FlushInterval: durable.DefaultFlushInterval,
	})
	if err != nil {
		return nil, nil, durable.RecoverStats{}, err
	}
	auditFile, err := os.OpenFile(filepath.Join(dir, "audit.log"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, durable.RecoverStats{}, err
	}
	store.SetAudit(audit.NewLog(auditFile, nil))
	stats, err := store.Recover(registry)
	if err != nil {
		auditFile.Close()
		return nil, nil, stats, err
	}
	return store, auditFile, stats, nil
}

// running is a gaas server being served on a loopback port.
type running struct {
	server *gaas.Server
	ln     net.Listener
	served chan error
}

// serve starts a server governed by glimmerd's default limits, over TLS
// with a self-signed certificate unless plaintext is asked for.
func serve(cfg gaas.ServerConfig, plaintext bool) (*running, error) {
	if !plaintext {
		tlsConf, err := gaas.SelfSignedServerTLS("127.0.0.1")
		if err != nil {
			return nil, err
		}
		cfg.TLS = tlsConf
	}
	cfg.ReadTimeout, cfg.WriteTimeout, cfg.IdleTimeout = readTimeout, writeTimeout, idleTimeout
	cfg.MaxConns, cfg.MaxConnsPerIP, cfg.MaxInflightBatches = maxConns, maxConnsPerIP, maxInflight
	r := &running{server: gaas.New(cfg), served: make(chan error, 1)}
	var err error
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { r.served <- r.server.Serve(r.ln) }()
	return r, nil
}

func (r *running) addr() string { return r.ln.Addr().String() }

// Close is glimmerd's drain: close the listener, then settle every
// connection handler.
func (r *running) Close() error {
	r.ln.Close()
	err := <-r.served
	r.server.Shutdown()
	return err
}

func (tr *trustRoot) startNode(opts nodeOpts) (*node, error) {
	platform, err := tee.NewPlatform(tr.as)
	if err != nil {
		return nil, err
	}
	reg, err := tr.newRegistry(opts.maxTickets)
	if err != nil {
		return nil, err
	}
	registry := reg.registry
	store, auditFile, _, err := openStore(opts.dir, registry)
	if err != nil {
		return nil, err
	}
	n := &node{hosted: reg, store: store, dir: opts.dir, auditLog: auditFile}
	// Routes are registered before Serve starts, as in glimmerd.
	mux := gaas.NewServeMux()
	if opts.id != 0 {
		key, err := xcrypto.NewSigningKey()
		if err != nil {
			store.Close()
			auditFile.Close()
			return nil, err
		}
		n.seal = service.NodeSeal{NodeID: opts.id, ShardCount: 1, Measurement: tr.meas, Key: key}
		mux.HandleFleet(registry, nil)
	}
	n.running, err = serve(gaas.ServerConfig{Platform: platform, Mux: mux, Hosts: registry, Ingest: registry}, false)
	if err != nil {
		store.Close()
		auditFile.Close()
		return nil, err
	}
	return n, nil
}

// stop drains the server and closes the WAL.
func (n *node) stop() error {
	err := n.Close()
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	if cerr := n.auditLog.Close(); err == nil {
		err = cerr
	}
	return err
}

// startMerger serves fleet-merge only, from m: a dedicated coordinator.
func startMerger(m gaas.PartialMerger) (*running, error) {
	mux := gaas.NewServeMux()
	mux.HandleFleet(nil, m)
	return serve(gaas.ServerConfig{Mux: mux}, false)
}

// dialConfig is a relay's or device's connection: sessionless (public
// frames only), TLS without certificate trust (trust is attestation's).
func dialConfig() gaas.DialConfig {
	return gaas.DialConfig{
		NoSession:        true,
		TLS:              gaas.InsecureClientTLS(),
		DialTimeout:      10 * time.Second,
		HandshakeTimeout: 10 * time.Second,
		CallTimeout:      30 * time.Second,
	}
}

func dial(addr string) (*gaas.Client, error) {
	return gaas.DialContext(context.Background(), addr, dialConfig())
}

// stateFS names the filesystem under dir, for the environment record.
func stateFS(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		var dev, mount, typ string
		if _, err := fmt.Sscan(line, &dev, &mount, &typ); err != nil {
			continue
		}
		under := abs == mount || mount == "/" || strings.HasPrefix(abs, mount+"/")
		if under && len(mount) > len(best) {
			best, fs = mount, typ
		}
	}
	return fs
}
