package gaas

import (
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"net"
	"time"

	"glimmers/internal/attest"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
)

// DialConfig shapes a client connection to a Glimmer host: who to trust
// (quote verifier plus optional TOFU known-hosts pinning), how to reach
// them (TLS, dial/handshake timeouts), and how patient calls are.
type DialConfig struct {
	// Service names the tenant whose Glimmer the client wants hosted; it
	// is the frame-level routing key of the multi-tenant protocol and the
	// known-hosts pinning key.
	Service string

	// Verifier checks the hosted enclave's quote. An empty allowlist
	// admits any genuinely attested measurement — pair it with KnownHosts
	// so the first genuine measurement is pinned and later swaps refuse.
	Verifier *tee.QuoteVerifier

	// KnownHosts, when non-nil, pins Service to the enclave measurement
	// seen on first use and fails later handshakes whose genuinely
	// attested measurement differs (ErrMeasurementMismatch). This is the
	// client's defense against a host quietly swapping the enclave for a
	// different — still genuine, still vetted-by-someone — binary.
	KnownHosts *KnownHosts

	// TLS, when non-nil, wraps the connection before any frame is sent.
	// Endpoint privacy and integrity for the transport; the trust
	// decision stays with attestation (see the README threat model), so
	// InsecureClientTLS is an acceptable client config here.
	TLS *tls.Config

	// DialTimeout bounds establishing the TCP connection. Zero means no
	// limit beyond the context's.
	DialTimeout time.Duration

	// HandshakeTimeout bounds the TLS handshake and the attested user
	// handshake together. Zero means no limit.
	HandshakeTimeout time.Duration

	// CallTimeout bounds each round trip (Contribute, SubmitBatch,
	// RequestTicket): a stalled server fails the call instead of hanging
	// the caller forever. Zero means no limit.
	CallTimeout time.Duration

	// NoSession skips the attested user-session handshake. For clients
	// that only forward public frames (submit-batch relays, ticket
	// couriers) and never ship private data; Contribute requires a
	// session and will fail.
	NoSession bool
}

// Client is an IoT device using a remote Glimmer. It has no TEE of its
// own; its trust comes entirely from quote verification (and, when
// configured, the TOFU measurement pin).
type Client struct {
	conn net.Conn
	// frames is where whole request frames are written: conn itself, or,
	// over TLS that DialContext set up, a frameWriter that makes a
	// multi-record frame one socket write.
	frames      io.Writer
	session     *attest.Session
	callTimeout time.Duration
	measurement tee.Measurement
}

// DialContext connects to a Glimmer host under cfg: TCP (bounded by
// DialTimeout and ctx), then TLS when configured (bounded by
// HandshakeTimeout), then the attested user session unless NoSession.
// Under TLS, a request frame that spans several records reaches the
// socket as one write (coalesceConn).
func DialContext(ctx context.Context, addr string, cfg DialConfig) (*Client, error) {
	d := net.Dialer{Timeout: cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gaas: dial: %w", err)
	}
	return clientOver(ctx, conn, cfg)
}

// clientOver builds DialContext's client over an established transport
// conn: TLS when configured (bounded by HandshakeTimeout), then the
// attested user handshake unless cfg.NoSession (bounded by the same
// timeout). It owns conn: on error, what it built over conn is closed.
func clientOver(ctx context.Context, conn net.Conn, cfg DialConfig) (*Client, error) {
	c := &Client{conn: conn, frames: conn, callTimeout: cfg.CallTimeout}
	if cfg.TLS != nil {
		co := &coalesceConn{Conn: conn}
		tconn := tls.Client(co, cfg.TLS)
		hctx := ctx
		if cfg.HandshakeTimeout > 0 {
			var cancel context.CancelFunc
			hctx, cancel = context.WithTimeout(ctx, cfg.HandshakeTimeout)
			defer cancel()
		}
		if err := tconn.HandshakeContext(hctx); err != nil {
			conn.Close()
			return nil, fmt.Errorf("gaas: tls handshake: %w", err)
		}
		c.conn, c.frames = tconn, &frameWriter{tls: tconn, co: co}
	}
	if cfg.NoSession {
		return c, nil
	}
	if cfg.HandshakeTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(cfg.HandshakeTimeout)); err != nil {
			c.conn.Close()
			return nil, fmt.Errorf("gaas: handshake deadline: %w", err)
		}
		defer c.conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort disarm
	}
	if err := c.handshake(cfg.Verifier, cfg.Service, cfg.KnownHosts); err != nil {
		c.conn.Close()
		return nil, err
	}
	return c, nil
}

// Measurement returns the enclave measurement attested during the
// handshake (zero for NoSession clients).
func (c *Client) Measurement() tee.Measurement { return c.measurement }

// armDeadline applies the per-call timeout before a round trip; the
// matching disarmDeadline clears it so an idle client connection is not
// killed by a deadline left over from the last call.
func (c *Client) armDeadline() error {
	if c.callTimeout <= 0 {
		return nil
	}
	return c.conn.SetDeadline(time.Now().Add(c.callTimeout))
}

func (c *Client) disarmDeadline() {
	if c.callTimeout > 0 {
		_ = c.conn.SetDeadline(time.Time{})
	}
}

func (c *Client) roundTrip(cmd string, body []byte) ([]byte, error) {
	if err := c.armDeadline(); err != nil {
		return nil, fmt.Errorf("gaas: arm deadline: %w", err)
	}
	defer c.disarmDeadline()
	if err := writeFrame(c.frames, cmd, body); err != nil {
		return nil, err
	}
	return c.readReply()
}

// readReply reads one response frame and maps a non-ok status back onto
// the typed protocol errors — the shared reply tail for roundTrip and
// SubmitBatch (which writes its request through the pooled encode-once
// path instead).
func (c *Client) readReply() ([]byte, error) {
	status, out, err := readFrame(c.conn)
	if err != nil {
		return nil, err
	}
	if status != "ok" {
		return nil, remoteError(out)
	}
	return out, nil
}

func (c *Client) handshake(verifier *tee.QuoteVerifier, serviceName string, known *KnownHosts) error {
	// The hello names the service: a multi-tenant host loads this session's
	// enclave from that tenant's configuration (frame-level routing).
	helloBytes, err := c.roundTrip(cmdUserHello, EncodeHelloBody(serviceName))
	if err != nil {
		return err
	}
	hello, err := attest.DecodeHello(helloBytes)
	if err != nil {
		return err
	}
	session, resp, err := attest.Respond(hello, verifier, nil, glimmer.UserContext(serviceName))
	if err != nil {
		return fmt.Errorf("gaas: remote glimmer not genuine: %w", err)
	}
	// The measurement is trustworthy here — Respond verified the quote's
	// certificate chain, signature, and session binding — so it is the
	// value the TOFU store pins. The check runs before user-complete:
	// a swapped enclave is refused before the session exists.
	m := hello.Quote.Report.Measurement
	if known != nil {
		if err := known.Check(serviceName, m); err != nil {
			return err
		}
	}
	if _, err := c.roundTrip(cmdUserComplete, attest.EncodeResponse(resp)); err != nil {
		return err
	}
	c.session = session
	c.measurement = m
	return nil
}

// Contribute submits a contribution with its private validation data over
// the attested session and returns the signed, blinded result.
func (c *Client) Contribute(round uint64, contribution fixed.Vector, private []int64) (glimmer.SignedContribution, error) {
	if c.session == nil {
		return glimmer.SignedContribution{}, errNoSession
	}
	req := glimmer.ContributionRequest{
		Round:        round,
		Contribution: glimmer.VectorToBits(contribution),
		Private:      glimmer.Int64sToBits(private),
	}
	record, err := c.session.Send(glimmer.EncodeContribution(req))
	if err != nil {
		return glimmer.SignedContribution{}, err
	}
	replyRecord, err := c.roundTrip(cmdUserContribute, record)
	if err != nil {
		return glimmer.SignedContribution{}, err
	}
	reply, err := c.session.Recv(replyRecord)
	if err != nil {
		return glimmer.SignedContribution{}, fmt.Errorf("gaas: reply authentication: %w", err)
	}
	switch {
	case string(reply) == "rejected":
		return glimmer.SignedContribution{}, ErrRejected
	case len(reply) > len("accepted:") && string(reply[:len("accepted:")]) == "accepted:":
		return glimmer.DecodeSignedContribution(reply[len("accepted:"):])
	}
	return glimmer.SignedContribution{}, fmt.Errorf("%w: malformed reply", ErrRemote)
}

// RequestTicket forwards an enclave's signed ticket request
// (glimmer.Device.TicketRequest) to the host's service side and returns
// the grant to install (glimmer.Device.InstallTicket) — one round trip,
// one signature verification server-side, and every contribution after it
// rides the MAC fast path. Renewal is the same call again: when SubmitBatch
// tallies start rejecting a session whose ticket has expired, re-run the
// exchange and re-seal.
func (c *Client) RequestTicket(request []byte) ([]byte, error) {
	return c.roundTrip(cmdTicketGrant, request)
}

// SubmitBatch forwards signed contributions to the host's aggregation
// pipeline in one round trip and returns the server's accepted/rejected
// tallies. The host must have ingest enabled (gaas servers co-located with
// the service, like cmd/glimmerd).
//
// The batch frame is encoded exactly once, directly into a pooled buffer,
// and handed to the connection in one Write — over TLS set up by
// DialContext, one socket write for all its records. Earlier versions encoded the batch body
// and then re-encoded it inside the frame wrapper — twice the bytes, twice
// the copies — and paid that full cost again just to discover the frame
// was oversized before a split-and-retry. The size check is now arithmetic
// (wire.EncodedBatchSize), so the retryable ErrBatchTooLarge path encodes
// nothing at all.
func (c *Client) SubmitBatch(raws [][]byte) (accepted, rejected int, err error) {
	return c.submitBatchCmd(cmdSubmitBatch, raws)
}

// submitBatchCmd is the encode-once batch round trip behind SubmitBatch
// (submit-batch); fleet-forward frames take the same shape.
func (c *Client) submitBatchCmd(cmd string, raws [][]byte) (accepted, rejected int, err error) {
	// Check the protocol limits client-side: the server rejects an
	// oversized frame with ErrFrameTooLarge and then drops the connection
	// (losing the session), and an over-count batch with a generic remote
	// error; both cases should be the distinguishable "split and retry"
	// error before any bytes move.
	if len(raws) > wire.MaxBatchItems {
		return 0, 0, fmt.Errorf("%w: %d items", ErrBatchTooLarge, len(raws))
	}
	batchSize := wire.EncodedBatchSize(raws)
	if batchSize > MaxFrame-64 {
		return 0, 0, fmt.Errorf("%w: %d bytes", ErrBatchTooLarge, batchSize)
	}
	if err := c.armDeadline(); err != nil {
		return 0, 0, fmt.Errorf("gaas: arm deadline: %w", err)
	}
	defer c.disarmDeadline()
	bufp := frameBufPool.Get().(*[]byte)
	buf := appendFrameHeader((*bufp)[:0], cmd, batchSize)
	buf = wire.AppendBatch(buf, raws)
	_, err = c.frames.Write(buf)
	*bufp = buf[:0]
	putFrameBuf(bufp)
	if err != nil {
		return 0, 0, fmt.Errorf("gaas: write frame: %w", err)
	}
	reply, err := c.readReply()
	if err != nil {
		return 0, 0, err
	}
	var r wire.Reader
	r.Reset(reply)
	accepted = int(r.Uint32())
	rejected = int(r.Uint32())
	if err := r.Done(); err != nil {
		return 0, 0, fmt.Errorf("gaas: submit reply: %w", err)
	}
	return accepted, rejected, nil
}

// Close terminates the connection.
func (c *Client) Close() error { return c.conn.Close() }
