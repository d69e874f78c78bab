package gaas

import (
	"context"
	"crypto/ed25519"
	"crypto/tls"
	"crypto/x509"
	"net"
	"testing"
)

// selfSignedEdge serves submit-batch over loopback TLS with a fresh
// SelfSignedServerTLS certificate and returns the server's config and
// address.
func selfSignedEdge(tb testing.TB) (*tls.Config, string) {
	tb.Helper()
	serverTLS, err := SelfSignedServerTLS("127.0.0.1")
	if err != nil {
		tb.Fatal(err)
	}
	srv := New(ServerConfig{Ingest: &tallyIngestor{}, TLS: serverTLS})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends when the listener closes
	tb.Cleanup(func() { ln.Close(); srv.Shutdown() })
	return serverTLS, ln.Addr().String()
}

// TestSelfSignedCertIsEd25519: the transport certificate's key is Ed25519,
// and a client dialing with InsecureClientTLS completes the handshake
// against it, is shown that leaf, and gets a frame through.
func TestSelfSignedCertIsEd25519(t *testing.T) {
	serverTLS, addr := selfSignedEdge(t)
	if _, ok := serverTLS.Certificates[0].PrivateKey.(ed25519.PrivateKey); !ok {
		t.Fatalf("certificate key is %T, want ed25519.PrivateKey", serverTLS.Certificates[0].PrivateKey)
	}
	leaf, err := x509.ParseCertificate(serverTLS.Certificates[0].Certificate[0])
	if err != nil {
		t.Fatal(err)
	}
	if leaf.PublicKeyAlgorithm != x509.Ed25519 {
		t.Fatalf("leaf key algorithm %v, want Ed25519", leaf.PublicKeyAlgorithm)
	}

	client, err := DialContext(context.Background(), addr, DialConfig{NoSession: true, TLS: InsecureClientTLS()})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	state := client.conn.(*tls.Conn).ConnectionState()
	if got := state.PeerCertificates[0].PublicKeyAlgorithm; got != x509.Ed25519 {
		t.Fatalf("client was shown a %v leaf, want Ed25519", got)
	}
	if acc, rej, err := client.SubmitBatch(smallBatch(2)); err != nil || acc != 2 || rej != 0 {
		t.Fatalf("SubmitBatch = (%d, %d, %v)", acc, rej, err)
	}
}

// BenchmarkSelfSignedHandshake is one loopback TLS 1.3 dial against a
// SelfSignedServerTLS certificate, both sides in this process: the cost a
// fresh device session pays for transport privacy.
func BenchmarkSelfSignedHandshake(b *testing.B) {
	_, addr := selfSignedEdge(b)
	cfg := DialConfig{NoSession: true, TLS: InsecureClientTLS()}
	b.ReportAllocs()
	for b.Loop() {
		client, err := DialContext(context.Background(), addr, cfg)
		if err != nil {
			b.Fatal(err)
		}
		client.Close()
	}
}
