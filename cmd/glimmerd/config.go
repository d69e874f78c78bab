package main

import (
	"crypto/tls"
	"fmt"
	"net"
	"strconv"
	"strings"

	"glimmers/internal/botdetect"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/node"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

// Flag values → the pieces of a node.Config.

// parsePeers parses "1=host:port,2=host:port" into the fleet node set,
// which must include this node's own id.
func parsePeers(s string, self uint32) ([]gaas.FleetNode, error) {
	if s == "" {
		return nil, nil
	}
	var nodes []gaas.FleetNode
	found := false
	for _, entry := range strings.Split(s, ",") {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("peer %q: want id=host:port", entry)
		}
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("peer %q: node id must be a positive integer", entry)
		}
		nodes = append(nodes, gaas.FleetNode{ID: uint32(id), Addr: addr})
		found = found || uint32(id) == self
	}
	if !found {
		return nil, fmt.Errorf("the node set requires -node-id and must include it (got %d)", self)
	}
	return nodes, nil
}

// tenantSpec is one parsed -tenants entry.
type tenantSpec struct {
	name string
	dim  int
	bot  bool
}

// parseTenants parses "name:dim,name:bot" into specs.
func parseTenants(s string) ([]tenantSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []tenantSpec
	for _, entry := range strings.Split(s, ",") {
		name, kind, ok := strings.Cut(strings.TrimSpace(entry), ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant %q: want name:dim or name:bot", entry)
		}
		if kind == "bot" {
			specs = append(specs, tenantSpec{name: name, dim: botdetect.TenantDim, bot: true})
			continue
		}
		dim, err := strconv.Atoi(kind)
		if err != nil || dim <= 0 {
			return nil, fmt.Errorf("tenant %q: dimension must be a positive integer", entry)
		}
		specs = append(specs, tenantSpec{name: name, dim: dim})
	}
	return specs, nil
}

// tenantConfig assembles one tenant: its cloud service, predicate, hosting
// enclave config, and registry entry.
func tenantConfig(as *tee.AttestationService, spec tenantSpec, workers, shards int, ticketTTL int64) (service.TenantConfig, error) {
	svc, err := service.New(spec.name, as.Root())
	if err != nil {
		return service.TenantConfig{}, err
	}
	pred := predicate.UnitRangeCheck("unit-range", spec.dim)
	if spec.bot {
		pred = botdetect.DefaultDetector.TenantPredicate("bot-tenant")
	}
	if err := svc.SetPredicate(pred); err != nil {
		return service.TenantConfig{}, err
	}
	cfg, err := svc.GlimmerConfig(spec.dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		return service.TenantConfig{}, err
	}
	meas := glimmer.BuildBinary(cfg).Measurement()
	svc.Vet(meas)
	// Session tickets (the amortized fast path): one signature-verified grant
	// per client session, constant-time MACs per contribution thereafter.
	var ticketPolicy *service.TicketConfig
	if ticketTTL > 0 {
		ticketPolicy = &service.TicketConfig{TTL: ticketTTL}
	}
	return service.TenantConfig{
		Name:         spec.name,
		Verify:       svc.ContributionVerifyKey(),
		Dim:          spec.dim,
		Vetted:       []tee.Measurement{meas},
		TicketPolicy: ticketPolicy,
		Workers:      workers,
		Shards:       shards,
		EvictAtCap:   node.DefaultEvictAtCap,
		RoundWindow:  node.DefaultRoundWindow,
		Glimmer:      cfg,
		Provision:    svc.ProvisionDevice,
	}, nil
}

// tlsConfig builds the edge's TLS: nil for plaintext. The TLS transport
// denies passive observers the frame plaintext; the trust decision stays
// with attestation (clients pin measurements, not certificates), so a
// self-signed cert is a legitimate deployment.
func tlsConfig(listen string, selfSigned bool, certFile, keyFile string) (*tls.Config, error) {
	switch {
	case selfSigned:
		host := listen
		if h, _, err := net.SplitHostPort(listen); err == nil && h != "" {
			host = h
		}
		return gaas.SelfSignedServerTLS(host)
	case certFile != "":
		cert, err := tls.LoadX509KeyPair(certFile, keyFile)
		if err != nil {
			return nil, err
		}
		return &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}, nil
	}
	return nil, nil
}
