package main

import (
	"crypto/tls"
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"

	"glimmers/internal/botdetect"
	"glimmers/internal/fleet"
	"glimmers/internal/gaas"
	"glimmers/internal/testbed"
)

// Flag values → the pieces of a node.Config.

// parsePeers parses "1=host:port,2=host:port", the fleet node set, which
// must include this node's own id, into the ring gaas.DialFleet builds
// from the same set (nil without one).
func parsePeers(s string, self uint32) (*fleet.Ring, error) {
	if s == "" {
		return nil, nil
	}
	var ids []uint32
	for _, entry := range strings.Split(s, ",") {
		idStr, addr, ok := strings.Cut(strings.TrimSpace(entry), "=")
		if !ok || addr == "" {
			return nil, fmt.Errorf("peer %q: want id=host:port", entry)
		}
		id, err := strconv.ParseUint(idStr, 10, 32)
		if err != nil || id == 0 {
			return nil, fmt.Errorf("peer %q: node id must be a positive integer", entry)
		}
		ids = append(ids, uint32(id))
	}
	if !slices.Contains(ids, self) {
		return nil, fmt.Errorf("the node set requires -node-id and must include it (got %d)", self)
	}
	return fleet.NewRing(ids, 0)
}

// parseTenants parses "name:dim,name:bot" into specs: a [0,1] range-check
// tenant over dim weights, or the §4.1 bot detector.
func parseTenants(s string) ([]testbed.TenantSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []testbed.TenantSpec
	for _, entry := range strings.Split(s, ",") {
		name, kind, ok := strings.Cut(strings.TrimSpace(entry), ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("tenant %q: want name:dim or name:bot", entry)
		}
		if kind == "bot" {
			specs = append(specs, testbed.TenantSpec{Name: name, Dim: botdetect.TenantDim,
				Predicate: botdetect.DefaultDetector.TenantPredicate("bot-tenant")})
			continue
		}
		dim, err := strconv.Atoi(kind)
		if err != nil || dim <= 0 {
			return nil, fmt.Errorf("tenant %q: dimension must be a positive integer", entry)
		}
		specs = append(specs, testbed.TenantSpec{Name: name, Dim: dim})
	}
	return specs, nil
}

// tlsConfig builds the edge's TLS: nil for plaintext. The TLS transport
// denies passive observers the frame plaintext; the trust decision stays
// with attestation (clients pin measurements, not certificates), so a
// self-signed cert is a legitimate deployment; it names the listen host,
// or loopback for a wildcard address, which names no host a client dials.
func tlsConfig(listen string, selfSigned bool, certFile, keyFile string) (*tls.Config, error) {
	switch {
	case selfSigned:
		host, _, _ := net.SplitHostPort(listen)
		if host == "" || net.ParseIP(host).IsUnspecified() {
			return gaas.SelfSignedServerTLS()
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
