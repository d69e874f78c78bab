package gaas

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"time"
)

// SelfSignedServerTLS builds a server TLS config around a fresh
// self-signed Ed25519 certificate for the given hosts (DNS names or IP
// addresses; none defaults to localhost). gaas does not hang trust on
// the certificate — the client trusts the enclave measurement it attests
// and pins, and TLS only denies passive observers the frame plaintext —
// so a self-signed transport cert is the honest default for a deployment
// without a CA.
func SelfSignedServerTLS(hosts ...string) (*tls.Config, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("gaas: tls key: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return nil, fmt.Errorf("gaas: tls serial: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: "gaas self-signed"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(365 * 24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	if len(hosts) == 0 {
		hosts = []string{"localhost", "127.0.0.1", "::1"}
	}
	for _, h := range hosts {
		if ip := net.ParseIP(h); ip != nil {
			tmpl.IPAddresses = append(tmpl.IPAddresses, ip)
		} else {
			tmpl.DNSNames = append(tmpl.DNSNames, h)
		}
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, pub, key)
	if err != nil {
		return nil, fmt.Errorf("gaas: tls cert: %w", err)
	}
	return &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: key}},
		MinVersion:   tls.VersionTLS13,
	}, nil
}

// InsecureClientTLS is the client config matching a self-signed server:
// certificate verification is skipped because the endpoint trust decision
// is made by quote verification and the TOFU measurement pin, not by the
// certificate chain. TLS here buys transport privacy against passive
// observers; it was never the authentication layer.
func InsecureClientTLS() *tls.Config {
	return &tls.Config{
		InsecureSkipVerify: true, // endpoint trust comes from attestation + TOFU
		MinVersion:         tls.VersionTLS13,
	}
}
