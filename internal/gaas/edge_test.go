package gaas

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// blockingIngestor parks every IngestBatch call until released, so tests
// can hold batches in flight deterministically.
type blockingIngestor struct {
	entered chan struct{}
	release chan struct{}
	mu      sync.Mutex
	total   int
}

func newBlockingIngestor() *blockingIngestor {
	return &blockingIngestor{entered: make(chan struct{}, 16), release: make(chan struct{})}
}

func (b *blockingIngestor) IngestBatch(raws [][]byte) (int, []error) {
	b.entered <- struct{}{}
	<-b.release
	b.mu.Lock()
	b.total += len(raws)
	b.mu.Unlock()
	return len(raws), make([]error, len(raws))
}

// edgeServer starts a server over real TCP under cfg and returns its
// address. The listener closes and the server shuts down with the test.
func edgeServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close(); srv.Shutdown() })
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String()
}

// submitOnlyClient dials addr as a batch courier: no attested session, so
// no enclave platform is needed server-side.
func submitOnlyClient(t *testing.T, addr string, cfg DialConfig) *Client {
	t.Helper()
	cfg.NoSession = true
	c, err := DialContext(context.Background(), addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func smallBatch(n int) [][]byte {
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = []byte{byte(i), 1, 2, 3}
	}
	return raws
}

// TestShutdownUnderLoad: a batch blocked inside the ingest pipeline when
// Shutdown fires must still land — Shutdown waits for the handler, and
// the handler finishes IngestBatch before its reply write fails.
func TestShutdownUnderLoad(t *testing.T) {
	ing := newBlockingIngestor()
	srv := New(ServerConfig{Ingest: ing})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	client := submitOnlyClient(t, ln.Addr().String(), DialConfig{})

	submitDone := make(chan error, 1)
	go func() {
		_, _, err := client.SubmitBatch(smallBatch(5))
		submitDone <- err
	}()
	<-ing.entered // the batch is inside the pipeline

	shutdownDone := make(chan struct{})
	go func() {
		ln.Close()
		srv.Shutdown()
		close(shutdownDone)
	}()
	// Shutdown must wait for the in-flight batch, not abandon it.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a batch was still inside IngestBatch")
	case <-time.After(50 * time.Millisecond):
	}
	close(ing.release)
	select {
	case <-shutdownDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not complete after the batch drained")
	}
	<-submitDone // either tallies or a closed-conn error; the batch landed either way
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.total != 5 {
		t.Fatalf("in-flight batch lost: ingested %d items, want 5", ing.total)
	}
}

// TestIdleReapSparesLiveTraffic: the idle deadline re-arms per frame, so
// a connection with live traffic at intervals below the timeout survives
// arbitrarily many idle periods — and is reaped once it truly stalls.
func TestIdleReapSparesLiveTraffic(t *testing.T) {
	ing := &tallyIngestor{}
	_, addr := edgeServer(t, ServerConfig{Ingest: ing, IdleTimeout: 200 * time.Millisecond})
	client := submitOnlyClient(t, addr, DialConfig{})

	// Live writes racing the reap clock: total wall time spans many idle
	// windows, each individual gap stays under one.
	for i := 0; i < 8; i++ {
		if _, _, err := client.SubmitBatch(smallBatch(2)); err != nil {
			t.Fatalf("live connection reaped at iteration %d: %v", i, err)
		}
		time.Sleep(70 * time.Millisecond)
	}
	// Now stall past the deadline: the server must reap the connection.
	time.Sleep(500 * time.Millisecond)
	if _, _, err := client.SubmitBatch(smallBatch(2)); err == nil {
		t.Fatal("submit on a reaped connection unexpectedly succeeded")
	}
}

// TestSlowlorisReaped: once a frame's length prefix arrives, the body
// must complete within ReadTimeout — a sender drip-feeding bytes cannot
// hold the connection open even while staying inside the idle window.
func TestSlowlorisReaped(t *testing.T) {
	ing := &tallyIngestor{}
	_, addr := edgeServer(t, ServerConfig{
		Ingest:      ing,
		IdleTimeout: 5 * time.Second,
		ReadTimeout: 150 * time.Millisecond,
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Announce a 1 KiB frame, then trickle one byte per idle-safe interval.
	if _, err := conn.Write([]byte{0, 0, 4, 0}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	reaped := make(chan struct{})
	go func() {
		// The server closing the connection surfaces as EOF/reset here.
		_, _ = io.ReadAll(conn)
		close(reaped)
	}()
	go func() {
		for i := 0; ; i++ {
			if _, err := conn.Write([]byte{byte(i)}); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	select {
	case <-reaped:
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("slowloris connection survived %v; ReadTimeout is 150ms", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slowloris connection never reaped")
	}
}

// TestMaxConnsRefusalAccounting: connections over MaxConns are refused
// with a typed ErrShed reply (not a hang, not a silent drop), counted,
// and a freed slot re-admits.
func TestMaxConnsRefusalAccounting(t *testing.T) {
	ing := &tallyIngestor{}
	srv, addr := edgeServer(t, ServerConfig{Ingest: ing, MaxConns: 2})

	c1 := submitOnlyClient(t, addr, DialConfig{})
	c2 := submitOnlyClient(t, addr, DialConfig{})
	// Prove both slots are live.
	for _, c := range []*Client{c1, c2} {
		if _, _, err := c.SubmitBatch(smallBatch(1)); err != nil {
			t.Fatal(err)
		}
	}

	over := submitOnlyClient(t, addr, DialConfig{CallTimeout: 5 * time.Second})
	_, _, err := over.SubmitBatch(smallBatch(1))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("over-limit connection got %v, want ErrShed", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("shed error %v should also match ErrRemote", err)
	}
	stats := srv.Stats()
	if stats.RefusedMaxConns != 1 || stats.ActiveConns != 2 {
		t.Fatalf("stats = %+v, want RefusedMaxConns=1 ActiveConns=2", stats)
	}

	// Freeing a slot re-admits new connections.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().ActiveConns >= 2 {
		if time.Now().After(deadline) {
			t.Fatal("closed connection never released its slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c3 := submitOnlyClient(t, addr, DialConfig{})
	if _, _, err := c3.SubmitBatch(smallBatch(1)); err != nil {
		t.Fatalf("connection after slot freed: %v", err)
	}
}

// TestPerIPRefusalAccounting: one address cannot consume the whole
// connection budget — the per-IP cap refuses its excess with ErrShed
// while the global cap still has room.
func TestPerIPRefusalAccounting(t *testing.T) {
	ing := &tallyIngestor{}
	srv, addr := edgeServer(t, ServerConfig{Ingest: ing, MaxConns: 16, MaxConnsPerIP: 1})

	c1 := submitOnlyClient(t, addr, DialConfig{})
	if _, _, err := c1.SubmitBatch(smallBatch(1)); err != nil {
		t.Fatal(err)
	}
	over := submitOnlyClient(t, addr, DialConfig{CallTimeout: 5 * time.Second})
	if _, _, err := over.SubmitBatch(smallBatch(1)); !errors.Is(err, ErrShed) {
		t.Fatalf("per-IP excess got %v, want ErrShed", err)
	}
	stats := srv.Stats()
	if stats.RefusedPerIP != 1 || stats.RefusedMaxConns != 0 {
		t.Fatalf("stats = %+v, want RefusedPerIP=1 RefusedMaxConns=0", stats)
	}
}

// TestLoadShedBatches: with MaxInflightBatches saturated, the next batch
// is refused immediately with ErrShed — backpressure as a reply, not a
// hang — and the in-flight batch still completes.
func TestLoadShedBatches(t *testing.T) {
	ing := newBlockingIngestor()
	srv, addr := edgeServer(t, ServerConfig{Ingest: ing, MaxInflightBatches: 1})

	holder := submitOnlyClient(t, addr, DialConfig{})
	holderDone := make(chan error, 1)
	go func() {
		_, _, err := holder.SubmitBatch(smallBatch(3))
		holderDone <- err
	}()
	<-ing.entered // pipeline saturated

	shedStart := time.Now()
	shed := submitOnlyClient(t, addr, DialConfig{})
	_, _, err := shed.SubmitBatch(smallBatch(3))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("saturated pipeline got %v, want ErrShed", err)
	}
	if elapsed := time.Since(shedStart); elapsed > 2*time.Second {
		t.Fatalf("shed reply took %v; sheds must not queue behind the pipeline", elapsed)
	}
	if got := srv.Stats().ShedBatches; got != 1 {
		t.Fatalf("ShedBatches = %d, want 1", got)
	}
	close(ing.release)
	if err := <-holderDone; err != nil {
		t.Fatalf("in-flight batch failed: %v", err)
	}
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.total != 3 {
		t.Fatalf("ingested %d items, want 3 (shed batch must not land)", ing.total)
	}
}

// TestCallTimeout pins the satellite fix: a stalled server fails the
// round trip within CallTimeout instead of hanging the caller forever.
func TestCallTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn) // read everything, reply with nothing
	}()
	client := submitOnlyClient(t, ln.Addr().String(), DialConfig{CallTimeout: 100 * time.Millisecond})
	start := time.Now()
	_, _, err = client.SubmitBatch(smallBatch(1))
	if err == nil {
		t.Fatal("submit against a silent server unexpectedly succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout fired after %v; CallTimeout is 100ms", elapsed)
	}
}

// TestFrameTooLargeTyped: an oversized length prefix gets the typed
// refusal back before the (unrecoverable) connection drops, and the
// client maps it onto ErrFrameTooLarge.
func TestFrameTooLargeTyped(t *testing.T) {
	ing := &tallyIngestor{}
	_, addr := edgeServer(t, ServerConfig{Ingest: ing})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	status, body, err := readFrame(conn)
	if err != nil {
		t.Fatalf("no refusal frame before drop: %v", err)
	}
	if status != "error" {
		t.Fatalf("status = %q, want error", status)
	}
	if rerr := remoteError(body); !errors.Is(rerr, ErrFrameTooLarge) {
		t.Fatalf("refusal %q does not map to ErrFrameTooLarge", body)
	}
	// The stream is desynced; the server must drop the connection.
	if _, _, _, err := readFrameInto(conn, nil); err == nil {
		t.Fatal("connection survived an oversized frame")
	}
}

// TestSentinelsSurviveAnErrorFrame: every typed refusal a server or a
// merge coordinator sends — wrapped with its detail, the way a handler
// returns it — crosses an error frame and comes back matching its own
// sentinel and ErrRemote, and no other sentinel, with its text intact.
func TestSentinelsSurviveAnErrorFrame(t *testing.T) {
	sentinels := []error{
		ErrShed, ErrUnknownCommand, ErrFrameTooLarge, errNoSession,
		wire.ErrSealMismatch, wire.ErrSealReplay, wire.ErrSealIdentity, wire.ErrSealSignature,
		wire.ErrMergeComplete, wire.ErrMergeRetired,
	}
	for _, want := range sentinels {
		var frame bytes.Buffer
		if err := writeFrame(&frame, "error", []byte(fmt.Errorf("%w: detail", want).Error())); err != nil {
			t.Fatal(err)
		}
		status, body, err := readFrame(&frame)
		if err != nil || status != "error" {
			t.Fatalf("%v: read back %q, %v", want, status, err)
		}
		got := remoteError(body)
		if !errors.Is(got, want) || !errors.Is(got, ErrRemote) || got.Error() != ErrRemote.Error()+": "+string(body) {
			t.Errorf("%q maps to %q, want it under ErrRemote matching %v", body, got, want)
		}
		for _, other := range sentinels {
			if other != want && errors.Is(got, other) {
				t.Errorf("%q also maps to %v", body, other)
			}
		}
	}
}

// TestUnknownCommandTyped: a command with no route comes back as
// ErrUnknownCommand through the client's error mapping, and the
// connection survives to serve the next frame.
func TestUnknownCommandTyped(t *testing.T) {
	ing := &tallyIngestor{}
	_, addr := edgeServer(t, ServerConfig{Ingest: ing})
	client := submitOnlyClient(t, addr, DialConfig{})
	if _, err := client.roundTrip("no-such-command", nil); !errors.Is(err, ErrUnknownCommand) {
		t.Fatalf("err = %v, want ErrUnknownCommand", err)
	}
	if _, _, err := client.SubmitBatch(smallBatch(1)); err != nil {
		t.Fatalf("connection did not survive an unknown command: %v", err)
	}
}

// TestMuxCustomHandler: the net/http-shaped surface — a custom command
// registers like a route and serves alongside the built-ins.
func TestMuxCustomHandler(t *testing.T) {
	mux := NewServeMux()
	mux.Handle("ping", HandlerFunc(func(s *Session, body []byte) ([]byte, error) {
		return append([]byte("pong:"), body...), nil
	}))
	ing := &tallyIngestor{}
	_, addr := edgeServer(t, ServerConfig{Mux: mux, Ingest: ing})
	client := submitOnlyClient(t, addr, DialConfig{})
	out, err := client.roundTrip("ping", []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "pong:abc" {
		t.Fatalf("reply = %q", out)
	}
	if _, _, err := client.SubmitBatch(smallBatch(2)); err != nil {
		t.Fatal(err)
	}
}

// twoEnclaveWorld builds two servers for the SAME service name whose
// enclaves have different (both genuine, both attestable) measurements —
// the swapped-enclave scenario TOFU exists to catch.
func twoEnclaveWorld(t *testing.T) (root *xcrypto.VerifyKey, addrA, addrB string, measA, measB tee.Measurement) {
	t.Helper()
	sub := newSubstrate(t)
	build := func(d int) (string, tee.Measurement) {
		tn := hostedTenant(t, sub, "iot.example", d)
		mux, _ := hostMux(t, tn.Config())
		tlsConf, err := SelfSignedServerTLS("127.0.0.1")
		if err != nil {
			t.Fatal(err)
		}
		srv, addr := edgeServer(t, ServerConfig{Platform: sub.Platform, Mux: mux, TLS: tlsConf})
		return addr, srv.Measurement()
	}
	addrA, measA = build(3)
	addrB, measB = build(4)
	if measA == measB {
		t.Fatal("test enclaves share a measurement")
	}
	return sub.AS.Root(), addrA, addrB, measA, measB
}

// TestTOFUSwappedMeasurementOverTLS is the acceptance scenario end to
// end over real TCP+TLS: first use pins the enclave measurement; the
// same service presenting a different — genuinely attested — enclave is
// refused with ErrMeasurementMismatch before any private data moves.
func TestTOFUSwappedMeasurementOverTLS(t *testing.T) {
	root, addrA, addrB, measA, _ := twoEnclaveWorld(t)
	// The verifier's empty allowlist admits any genuine enclave: the
	// pinning decision belongs entirely to the TOFU store.
	dialCfg := DialConfig{
		Service:          "iot.example",
		Verifier:         &tee.QuoteVerifier{Root: root},
		KnownHosts:       NewKnownHosts(),
		TLS:              InsecureClientTLS(),
		DialTimeout:      5 * time.Second,
		HandshakeTimeout: 5 * time.Second,
		CallTimeout:      10 * time.Second,
	}
	client, err := DialContext(context.Background(), addrA, dialCfg)
	if err != nil {
		t.Fatalf("first use: %v", err)
	}
	defer client.Close()
	if client.Measurement() != measA {
		t.Fatalf("client attested %s, want %s", client.Measurement(), measA)
	}
	if pinned, ok := dialCfg.KnownHosts.Lookup("iot.example"); !ok || pinned != measA {
		t.Fatal("first use did not pin the measurement")
	}
	// The swap: same service name, different enclave. Refused.
	if _, err := DialContext(context.Background(), addrB, dialCfg); !errors.Is(err, ErrMeasurementMismatch) {
		t.Fatalf("swapped enclave: err = %v, want ErrMeasurementMismatch", err)
	}
	// The pin survives the refused handshake.
	if pinned, _ := dialCfg.KnownHosts.Lookup("iot.example"); pinned != measA {
		t.Fatal("refused handshake disturbed the pin")
	}
	// Explicit rotation (the vetted-update path) re-admits the new enclave.
	if err := dialCfg.KnownHosts.Pin("iot.example", mustMeasurement(t, root, addrB, dialCfg)); err != nil {
		t.Fatal(err)
	}
	rotated, err := DialContext(context.Background(), addrB, dialCfg)
	if err != nil {
		t.Fatalf("after rotation: %v", err)
	}
	rotated.Close()
}

// mustMeasurement fetches the measurement addrB's enclave attests, via a
// pin-free probe dial.
func mustMeasurement(t *testing.T, root *xcrypto.VerifyKey, addr string, cfg DialConfig) tee.Measurement {
	t.Helper()
	probe := cfg
	probe.KnownHosts = nil
	c, err := DialContext(context.Background(), addr, probe)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	return c.Measurement()
}
