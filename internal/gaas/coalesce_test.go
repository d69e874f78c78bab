package gaas

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"glimmers/internal/wire"
)

// countingConn is the raw transport under a client's TLS: it counts the
// Write calls that reach it and the bytes they carry, and fails the next
// Write, without sending anything, once failNext is set.
type countingConn struct {
	net.Conn
	writes   atomic.Int64
	bytes    atomic.Int64
	lastLen  atomic.Int64
	failNext atomic.Bool
}

var errInjectedWrite = errors.New("injected transport write failure")

func (c *countingConn) Write(p []byte) (int, error) {
	if c.failNext.CompareAndSwap(true, false) {
		return 0, errInjectedWrite
	}
	c.writes.Add(1)
	c.bytes.Add(int64(len(p)))
	c.lastLen.Store(int64(len(p)))
	return c.Conn.Write(p)
}

// tlsFrameWorld serves submit-batch over loopback TLS into a tallyIngestor
// and dials it the way DialContext does, with a countingConn under the
// client's TLS.
func tlsFrameWorld(t *testing.T) (*Client, *countingConn, *tallyIngestor) {
	t.Helper()
	serverTLS, err := SelfSignedServerTLS()
	if err != nil {
		t.Fatal(err)
	}
	ing := &tallyIngestor{}
	srv := New(ServerConfig{Ingest: ing, TLS: serverTLS})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // ends when the listener closes
	t.Cleanup(func() { ln.Close(); srv.Shutdown() })
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cc := &countingConn{Conn: raw}
	client, err := clientOver(context.Background(), cc, DialConfig{NoSession: true, TLS: InsecureClientTLS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, cc, ing
}

func repeatedItems(n, size int, b byte) [][]byte {
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = bytes.Repeat([]byte{b + byte(i)}, size)
	}
	return raws
}

// TestTLSFrameIsOneTransportWrite pins the client's write coalescing: a
// frame crypto/tls splits into many records reaches the transport as one
// Write, whether it is a SubmitBatch or a roundTrip frame (partial-seal
// shipping, ticket grants); a frame that fits one record goes out as that
// record alone; and a transport failure mid-frame fails the call and leaves
// nothing behind for the next one to send.
func TestTLSFrameIsOneTransportWrite(t *testing.T) {
	client, cc, ing := tlsFrameWorld(t)

	big := repeatedItems(128, 1024, 0x10) // ≥128 KiB: nine records and more
	if size := wire.EncodedBatchSize(big); size < 128<<10 {
		t.Fatalf("test frame is %d B", size)
	}
	before := cc.writes.Load()
	if acc, rej, err := client.SubmitBatch(big); err != nil || acc != len(big) || rej != 0 {
		t.Fatalf("SubmitBatch = (%d, %d, %v)", acc, rej, err)
	}
	if got := cc.writes.Load() - before; got != 1 {
		t.Errorf("a %d B SubmitBatch took %d transport writes, want 1", wire.EncodedBatchSize(big), got)
	}

	body := wire.AppendBatch(nil, repeatedItems(64, 1024, 0x40)) // ≥64 KiB through roundTrip
	before = cc.writes.Load()
	reply, err := client.roundTrip(cmdSubmitBatch, body)
	if err != nil {
		t.Fatal(err)
	}
	var r wire.Reader
	r.Reset(reply)
	if acc, rej := r.Uint32(), r.Uint32(); r.Done() != nil || acc != 64 || rej != 0 {
		t.Fatalf("roundTrip reply = (%d, %d)", acc, rej)
	}
	if got := cc.writes.Load() - before; got != 1 {
		t.Errorf("a %d B roundTrip frame took %d transport writes, want 1", len(body), got)
	}

	// Past crypto/tls's first 128 KiB every record is full-sized, so a
	// frame under 16 KiB is exactly one record: its plaintext plus
	// recordOverhead.
	small := repeatedItems(4, 1024, 0x70)
	frameLen := 4 + 4 + len(cmdSubmitBatch) + 4 + wire.EncodedBatchSize(small)
	before = cc.writes.Load()
	if acc, _, err := client.SubmitBatch(small); err != nil || acc != len(small) {
		t.Fatalf("small SubmitBatch = (%d, %v)", acc, err)
	}
	if got := cc.writes.Load() - before; got != 1 {
		t.Errorf("a %d B frame took %d transport writes, want 1", frameLen, got)
	}
	if got, want := cc.lastLen.Load(), int64(frameLen+recordOverhead); got != want {
		t.Errorf("a one-record frame wrote %d B, want its record alone (%d B)", got, want)
	}
	if want := 128 + 64 + 4; ing.total != want {
		t.Fatalf("server decoded %d items, want %d", ing.total, want)
	}

	cc.failNext.Store(true)
	if _, _, err := client.SubmitBatch(big); !errors.Is(err, errInjectedWrite) {
		t.Fatalf("SubmitBatch over a failing transport = %v, want the transport's error", err)
	}
	sent := cc.bytes.Load()
	if _, _, err := client.SubmitBatch(small); err == nil {
		t.Fatal("a call after a failed frame write succeeded on a broken TLS stream")
	}
	if got := cc.bytes.Load() - sent; got != 0 {
		t.Errorf("the call after a failed frame write sent %d B; nothing of the failed frame may follow it", got)
	}
}
