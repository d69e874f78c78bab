package gaas

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

const dim = 3

type world struct {
	as       *tee.AttestationService
	platform *tee.Platform
	svc      *service.Service
	cfg      glimmer.Config
	server   *Server
	addr     string
	// rounds is non-nil when the world was built with ingest enabled
	// (wired before Serve, per SetIngest's contract).
	rounds *service.RoundManager
}

func newWorld(t *testing.T) *world { return newWorldIngest(t, false) }

func newWorldIngest(t *testing.T, withIngest bool) *world {
	t.Helper()
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New("iot.example", as.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("range", dim)); err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	svc.Vet(glimmer.BuildBinary(cfg).Measurement())

	mux := NewServeMux()
	mux.Mount(cfg, func(dev *glimmer.Device) error {
		payload, err := svc.BasePayload()
		if err != nil {
			return err
		}
		return svc.Provision(dev, payload)
	})
	srvCfg := ServerConfig{Platform: platform, Mux: mux}
	var rounds *service.RoundManager
	if withIngest {
		rounds = service.NewRoundManager(service.PipelineConfig{
			ServiceName: svc.Name(),
			Verify:      svc.ContributionVerifyKey(),
			Dim:         dim,
			Workers:     2,
			Shards:      2,
		})
		rounds.Vet(glimmer.BuildBinary(cfg).Measurement())
		srvCfg.Ingest = rounds
	}
	server := New(srvCfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = server.Serve(ln) }()
	return &world{
		as: as, platform: platform, svc: svc, cfg: cfg,
		server: server, addr: ln.Addr().String(), rounds: rounds,
	}
}

// dial is the plain client every test here starts from: an attested session
// to one tenant's hosted Glimmer, no TLS, no timeouts, no pinning.
func dial(addr string, verifier *tee.QuoteVerifier, serviceName string) (*Client, error) {
	return DialContext(context.Background(), addr, DialConfig{Service: serviceName, Verifier: verifier})
}

func (w *world) verifier() *tee.QuoteVerifier {
	v := &tee.QuoteVerifier{Root: w.as.Root()}
	v.Allow(w.server.Measurement())
	return v
}

func TestRemoteContribution(t *testing.T) {
	w := newWorld(t)
	client, err := dial(w.addr, w.verifier(), w.svc.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	contribution := fixed.FromFloats([]float64{0.1, 0.5, 0.9})
	sc, err := client.Contribute(1, contribution, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !w.svc.ContributionVerifyKey().Verify(sc.SignedBytes(), sc.Signature) {
		t.Fatal("remote contribution signature invalid")
	}
	agg := service.NewPipeline(service.PipelineConfig{
		ServiceName: w.svc.Name(),
		Verify:      w.svc.ContributionVerifyKey(),
		Dim:         dim,
		Round:       1,
		Workers:     1,
		Shards:      1,
	})
	agg.Vet(w.server.Measurement())
	if err := agg.Add(glimmer.EncodeSignedContribution(sc)); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteRejection(t *testing.T) {
	w := newWorld(t)
	client, err := dial(w.addr, w.verifier(), w.svc.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	malicious := fixed.FromFloats([]float64{538, 0, 0})
	if _, err := client.Contribute(1, malicious, nil); !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	// The connection survives a rejection.
	honest := fixed.FromFloats([]float64{0.1, 0.2, 0.3})
	if _, err := client.Contribute(2, honest, nil); err != nil {
		t.Fatalf("contribution after rejection: %v", err)
	}
}

func TestClientRefusesWrongMeasurement(t *testing.T) {
	w := newWorld(t)
	v := &tee.QuoteVerifier{Root: w.as.Root(), Allowed: []tee.Measurement{{0xBB}}}
	if _, err := dial(w.addr, v, w.svc.Name()); err == nil {
		t.Fatal("client trusted a glimmer with the wrong measurement")
	}
}

func TestClientRefusesWrongService(t *testing.T) {
	w := newWorld(t)
	if _, err := dial(w.addr, w.verifier(), "other.example"); err == nil {
		t.Fatal("client accepted a glimmer bound to a different service")
	}
}

func TestConcurrentClients(t *testing.T) {
	w := newWorld(t)
	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(round uint64) {
			client, err := dial(w.addr, w.verifier(), w.svc.Name())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			_, err = client.Contribute(round, fixed.FromFloats([]float64{0.1, 0.2, 0.3}), nil)
			errs <- err
		}(uint64(i))
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitBatchIngest drives the full remote ingest loop: obtain signed
// contributions from the hosted Glimmer, then push them back through the
// daemon's sharded aggregation pipeline in one submit-batch frame.
func TestSubmitBatchIngest(t *testing.T) {
	w := newWorldIngest(t, true)
	rounds := w.rounds

	client, err := dial(w.addr, w.verifier(), w.svc.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var raws [][]byte
	for _, val := range []float64{0.1, 0.4, 0.7} {
		sc, err := client.Contribute(1, fixed.FromFloats([]float64{val, val, val}), nil)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, glimmer.EncodeSignedContribution(sc))
	}
	// A duplicate and garbage must be rejected server-side, not kill the
	// batch.
	raws = append(raws, raws[0], []byte("garbage"))

	accepted, rejected, err := client.SubmitBatch(raws)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 3 || rejected != 2 {
		t.Fatalf("submit = (%d accepted, %d rejected), want (3, 2)", accepted, rejected)
	}
	if got := rounds.Round(1).Count(); got != 3 {
		t.Fatalf("pipeline count = %d, want 3", got)
	}
}

// multiTenantWorld hosts two tenants behind one server via a registry.
func multiTenantWorld(t *testing.T) (*tee.AttestationService, *service.Registry, *Server, string) {
	t.Helper()
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	registry := service.NewRegistry(0)
	for name, d := range map[string]int{"alpha.example": 3, "beta.example": 2} {
		svc, err := service.New(name, as.Root())
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.SetPredicate(predicate.UnitRangeCheck("range", d)); err != nil {
			t.Fatal(err)
		}
		cfg, err := svc.GlimmerConfig(d, glimmer.ModeNone, glimmer.DefaultPolicy)
		if err != nil {
			t.Fatal(err)
		}
		svc.Vet(glimmer.BuildBinary(cfg).Measurement())
		if _, err := registry.AddTenant(service.TenantConfig{
			Name: name, Verify: svc.ContributionVerifyKey(), Dim: d,
			Glimmer: cfg,
			Provision: func(dev *glimmer.Device) error {
				payload, err := svc.BasePayload()
				if err != nil {
					return err
				}
				return svc.Provision(dev, payload)
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	server := New(ServerConfig{Platform: platform, Hosts: registry, Ingest: registry})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); server.Shutdown() })
	go func() { _ = server.Serve(ln) }()
	return as, registry, server, ln.Addr().String()
}

// TestMultiTenantHosting drives frame-level routing end to end: each
// client's hello names its tenant, gets that tenant's enclave (distinct
// measurements), and submitted batches land in that tenant's pipeline.
func TestMultiTenantHosting(t *testing.T) {
	as, registry, server, addr := multiTenantWorld(t)
	dims := map[string]int{"alpha.example": 3, "beta.example": 2}
	meas := make(map[string]tee.Measurement)
	for name, d := range dims {
		m, err := server.MeasurementFor(name)
		if err != nil {
			t.Fatal(err)
		}
		meas[name] = m
		verifier := &tee.QuoteVerifier{Root: as.Root()}
		verifier.Allow(m)
		client, err := dial(addr, verifier, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vals := make([]float64, d)
		for i := range vals {
			vals[i] = 0.25
		}
		sc, err := client.Contribute(1, fixed.FromFloats(vals), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.ServiceName != name {
			t.Fatalf("contribution endorsed for %q, want %q", sc.ServiceName, name)
		}
		accepted, rejected, err := client.SubmitBatch([][]byte{glimmer.EncodeSignedContribution(sc)})
		if err != nil || accepted != 1 || rejected != 0 {
			t.Fatalf("%s: submit = (%d, %d, %v)", name, accepted, rejected, err)
		}
		client.Close()
	}
	if meas["alpha.example"] == meas["beta.example"] {
		t.Fatal("tenants share a measurement; configs not distinct")
	}
	for name := range dims {
		tn, ok := registry.Tenant(name)
		if !ok {
			t.Fatal("tenant missing")
		}
		p, ok := tn.Manager().Lookup(1)
		if !ok || p.Count() != 1 {
			t.Fatalf("tenant %s round 1 count wrong", name)
		}
	}
	// An unknown tenant in the hello is refused before any enclave loads;
	// the multi-tenant legacy empty hello is ambiguous and also refused.
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	verifier.Allow(meas["alpha.example"])
	if _, err := dial(addr, verifier, "ghost.example"); err == nil {
		t.Fatal("unknown tenant hosted")
	}
}

// TestSubmitBatchWithoutIngest confirms a host with no pipeline refuses
// the command instead of dropping the connection.
func TestSubmitBatchWithoutIngest(t *testing.T) {
	w := newWorld(t)
	client, err := dial(w.addr, w.verifier(), w.svc.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.SubmitBatch([][]byte{[]byte("x")}); !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
}

func TestFrameCodec(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() {
		_ = writeFrame(c1, "hello", []byte("payload"))
	}()
	tag, body, err := readFrame(c2)
	if err != nil {
		t.Fatal(err)
	}
	if tag != "hello" || string(body) != "payload" {
		t.Fatalf("frame = (%q, %q)", tag, body)
	}
}

func TestHostSeesOnlyCiphertext(t *testing.T) {
	// The relay (the conn) carries the contribution only inside session
	// records; this test asserts the plaintext encoding never appears on
	// the wire. We intercept with a proxy.
	w := newWorld(t)
	contribution := fixed.FromFloats([]float64{0.123, 0.456, 0.789})
	plaintext := glimmer.EncodeContribution(glimmer.ContributionRequest{
		Round:        1,
		Contribution: glimmer.VectorToBits(contribution),
	})

	proxyLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer proxyLn.Close()
	var captured [][]byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		in, err := proxyLn.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", w.addr)
		if err != nil {
			return
		}
		defer out.Close()
		go func() {
			buf := make([]byte, 4096)
			for {
				n, err := out.Read(buf)
				if n > 0 {
					if _, werr := in.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}()
		buf := make([]byte, 4096)
		for {
			n, err := in.Read(buf)
			if n > 0 {
				captured = append(captured, append([]byte(nil), buf[:n]...))
				if _, werr := out.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()

	client, err := dial(proxyLn.Addr().String(), w.verifier(), w.svc.Name())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Contribute(1, contribution, nil); err != nil {
		t.Fatal(err)
	}
	client.Close()
	<-done

	var all []byte
	for _, chunk := range captured {
		all = append(all, chunk...)
	}
	if len(all) == 0 {
		t.Fatal("proxy captured nothing")
	}
	if contains(all, plaintext) {
		t.Fatal("plaintext contribution visible to the relay")
	}
	// Even a single element's raw bits should not appear in order.
	if contains(all, plaintext[12:44]) {
		t.Fatal("contribution fragment visible to the relay")
	}
}

func contains(haystack, needle []byte) bool {
	if len(needle) == 0 || len(haystack) < len(needle) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if haystack[i+j] != needle[j] {
				continue outer
			}
		}
		return true
	}
	return false
}

// TestIdleClientReaped: a client that handshakes and then goes silent must
// not pin its session enclave forever. With an idle timeout set, the read
// deadline expires, the handler exits, and the enclave is destroyed.
func TestIdleClientReaped(t *testing.T) {
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New("iot.example", as.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("range", dim)); err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	svc.Vet(glimmer.BuildBinary(cfg).Measurement())

	var mu sync.Mutex
	var session *glimmer.Device
	mux := NewServeMux()
	mux.Mount(cfg, func(dev *glimmer.Device) error {
		mu.Lock()
		session = dev
		mu.Unlock()
		payload, err := svc.BasePayload()
		if err != nil {
			return err
		}
		return svc.Provision(dev, payload)
	})
	server := New(ServerConfig{Platform: platform, Mux: mux, IdleTimeout: 50 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = server.Serve(ln) }()

	v := &tee.QuoteVerifier{Root: as.Root()}
	v.Allow(server.Measurement())
	client, err := dial(ln.Addr().String(), v, svc.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	mu.Lock()
	dev := session
	mu.Unlock()
	if dev == nil {
		t.Fatal("handshake did not provision a session enclave")
	}

	// Stall: send nothing. The server must reap the connection and
	// destroy the enclave on its own.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := dev.Hello(); errors.Is(err, tee.ErrDestroyed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session enclave still alive after idle timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The stalled connection is gone server-side: the next frame write
	// or read fails rather than hanging.
	if _, err := client.Contribute(1, fixed.FromFloats([]float64{0.1, 0.2, 0.3}), nil); err == nil {
		t.Fatal("contribution on a reaped connection unexpectedly succeeded")
	}
}
