// Package gaas implements Glimmer-as-a-service (§4.2 of the paper): IoT
// and other devices without trusted-computing hardware use a Glimmer hosted
// by a neutral third party — another device owned by the same user, a
// university, or an organization like the EFF.
//
// The one requirement the paper states is that "the client device needs to
// establish that it is sending its private data to a genuine Glimmer". The
// client therefore runs the same attestation-bound handshake a service
// would: it verifies the hosted enclave's quote against the published
// measurement, binds a session to it, and only then transmits the
// contribution and private validation data. The hosting party relays opaque
// ciphertext; it sees neither inputs nor verdicts.
//
// The serving side is shaped like net/http: commands are routes on a
// ServeMux (see Handler), tenants mount like handlers, and a Server built
// from a ServerConfig owns the transport — TLS, per-connection deadlines,
// connection caps, and load shedding. The client side mirrors it with
// DialContext, per-call timeouts, and a TOFU known-hosts store pinning
// service names to enclave measurements.
package gaas

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"glimmers/internal/glimmer"
	"glimmers/internal/wire"
)

// MaxFrame bounds one protocol frame (16 MiB).
const MaxFrame = 16 << 20

// Protocol commands.
const (
	cmdUserHello      = "user-hello"
	cmdUserComplete   = "user-complete"
	cmdUserContribute = "user-contribute"
	cmdSubmitBatch    = "submit-batch"
	cmdTicketGrant    = "ticket-grant"
)

// Frame I/O: u32 big-endian length prefix, then a wire message of
// {command/status, body}.

// frameBufPool recycles frame encode buffers so the per-frame hot path
// (server replies, batch submits) allocates nothing at steady state.
// Oversized buffers are not returned to the pool, so one giant batch frame
// cannot pin megabytes for the lifetime of the process.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// maxPooledFrame caps what goes back into frameBufPool.
const maxPooledFrame = 1 << 20

func putFrameBuf(bufp *[]byte) {
	if cap(*bufp) <= maxPooledFrame {
		frameBufPool.Put(bufp)
	}
}

// appendFrameHeader appends the frame length prefix and the tag field for
// a frame whose body will be bodyLen bytes. The caller appends the body's
// length prefix and content (or uses appendFrame for the common case).
func appendFrameHeader(dst []byte, tag string, bodyLen int) []byte {
	payloadLen := 4 + len(tag) + 4 + bodyLen
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tag)))
	dst = append(dst, tag...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(bodyLen))
	return dst
}

// appendFrame appends a complete encoded frame — identical bytes to the
// original two-write encoding, but built in one pass so the frame is one
// Write to its conn. Over TLS that Write is one record per 16 KiB of
// plaintext, each its own transport write, unless the client's coalescer
// gathers them (coalesce.go).
func appendFrame(dst []byte, tag string, body []byte) []byte {
	dst = appendFrameHeader(dst, tag, len(body))
	return append(dst, body...)
}

func writeFrame(w io.Writer, tag string, body []byte) error {
	bufp := frameBufPool.Get().(*[]byte)
	buf := appendFrame((*bufp)[:0], tag, body)
	_, err := w.Write(buf)
	*bufp = buf[:0]
	putFrameBuf(bufp)
	if err != nil {
		return fmt.Errorf("gaas: write frame: %w", err)
	}
	return nil
}

// readFrameLen reads and validates one frame's length prefix. It is split
// from readFramePayload so the serving loop can apply two different
// deadlines: an idle deadline while waiting for a frame to start, and a
// read deadline once one has — a trickling sender (slowloris) cannot hold
// a connection open by drip-feeding body bytes under the idle limit.
func readFrameLen(r io.Reader) (uint32, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return n, nil
}

// readFramePayload reads an n-byte frame payload into buf, growing it only
// when the frame exceeds its capacity, and returns the tag and body as
// views into it plus the (possibly grown) buffer for the next call. The
// views are valid until buf's next reuse — per-connection loops own their
// buffer, so a frame's views live exactly until the next frame is read.
func readFramePayload(r io.Reader, n uint32, buf []byte) (tag, body, next []byte, err error) {
	// Shrink before growing past need: one giant frame must not pin a
	// MaxFrame-sized buffer for the connection's lifetime once traffic
	// returns to normal (the same discipline maxPooledFrame applies to the
	// encode pool). The previous frame's views are dead by the time the
	// next read starts, so replacing the buffer here is safe.
	if cap(buf) < int(n) || (cap(buf) > maxPooledFrame && int(n) <= maxPooledFrame) {
		// 25% headroom so a stream of slowly growing frames amortizes
		// instead of reallocating on every new size maximum.
		buf = make([]byte, n, int(n)+int(n)/4)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, nil, buf, fmt.Errorf("gaas: read frame: %w", err)
	}
	var wr wire.Reader
	wr.Reset(buf)
	tag = wr.BytesView()
	body = wr.BytesView()
	if err := wr.Done(); err != nil {
		return nil, nil, buf, fmt.Errorf("gaas: frame payload: %w", err)
	}
	return tag, body, buf, nil
}

// readFrameInto reads one complete frame into buf — the single-deadline
// composition of readFrameLen and readFramePayload, for callers that do
// not distinguish idle from mid-frame time.
func readFrameInto(r io.Reader, buf []byte) (tag, body, next []byte, err error) {
	n, err := readFrameLen(r)
	if err != nil {
		return nil, nil, buf, err
	}
	return readFramePayload(r, n, buf)
}

// readFrame reads one frame into fresh memory; callers that retain the
// body (client handshakes) use this instead of readFrameInto.
func readFrame(r io.Reader) (string, []byte, error) {
	tag, body, _, err := readFrameInto(r, nil)
	if err != nil {
		return "", nil, err
	}
	return string(tag), body, nil
}

// Ingestor accepts batches of encoded signed contributions and reports
// how many were accepted, with one error slot per input. service.Registry
// satisfies it, routing each contribution to its tenant and round, one
// tenant or many.
//
// IngestBatch must not retain any raws slice after it returns: the server
// hands it views into a per-connection frame buffer that is reused for the
// next frame (service.Registry copies everything it keeps, so it
// qualifies). Those views flow through the service layer's batch plan
// untouched, whichever wire variant they hold — MAC and signature preimages
// and vector lanes are read in place (see service.Registry.IngestBatch), so
// a frame's contributions reach the shard accumulators with zero copies.
type Ingestor interface {
	IngestBatch(raws [][]byte) (accepted int, errs []error)
}

// TicketGranter runs the service side of the attested-session-ticket
// exchange: one signed request in, one grant out. service.Registry
// satisfies it with per-tenant routing (see service.Registry.GrantTicket). A mux whose Ingestor also implements TicketGranter
// serves the ticket-grant command; ticket renewal is simply another grant
// (clients re-run the exchange when ingest starts refusing with the
// ticket-expired error), and an expired or unknown ticket never grants
// anything implicitly — the refusal travels back as a normal error frame.
type TicketGranter interface {
	GrantTicket(request []byte) (grant []byte, err error)
}

// HostResolver maps the service name a client's hello carries to the
// enclave that tenant's user sessions run in. service.Registry satisfies
// it. The empty name is the legacy hello: resolvers should map it to their
// sole tenant when that is unambiguous.
type HostResolver interface {
	ResolveHost(service string) (glimmer.Config, func(*glimmer.Device) error, error)
}

// helloService decodes the service name a user-hello body carries. An
// empty body is the legacy single-tenant hello (empty name).
func helloService(body []byte) (string, error) {
	if len(body) == 0 {
		return "", nil
	}
	var r wire.Reader
	r.Reset(body)
	name := r.BytesView()
	if err := r.Done(); err != nil {
		return "", fmt.Errorf("gaas: hello body: %w", err)
	}
	return string(name), nil
}

// EncodeHelloBody encodes the tenant-bearing user-hello body: the service
// name the client wants hosted. This is the frame-level routing key of the
// multi-tenant protocol, so its encoding is pinned by golden-vector tests.
func EncodeHelloBody(service string) []byte {
	return wire.NewWriter().String(service).Finish()
}
