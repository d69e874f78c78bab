package gaas

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"glimmers/internal/glimmer"
	"glimmers/internal/wire"
)

// Session is the per-connection serving context handlers receive: the
// owning server, the transport, and the lazily loaded user-session
// enclave. One goroutine owns a Session for its whole life, so handlers
// may use its scratch state without locking.
type Session struct {
	srv  *Server
	conn net.Conn
	// dev is the session enclave, loaded on the first user-hello from the
	// tenant the hello names; a later hello on the same connection replaces
	// the session (and its enclave) wholesale.
	dev *glimmer.Device
	// batchScratch recycles the item-header slice across submit-batch
	// frames on this connection.
	batchScratch [][]byte
}

// Server returns the server this session is being served by.
func (s *Session) Server() *Server { return s.srv }

// RemoteAddr returns the client's address.
func (s *Session) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }

func (s *Session) close() {
	if s.dev != nil {
		s.dev.Destroy()
		s.dev = nil
	}
}

// handleConn runs one connection's frame loop: read a frame under the
// governance deadlines, route it through the mux, write the reply. The
// loop owns one frame buffer — command bodies are views into it and live
// exactly until the next frame is read (Handler documents the
// must-not-retain contract).
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	sess := &Session{srv: s, conn: conn}
	defer sess.close()
	var readBuf []byte
	for {
		// Idle deadline while waiting for a frame to start: a silent client
		// is reaped and its session enclave destroyed.
		if s.idleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.idleTimeout)); err != nil {
				return
			}
		}
		n, err := readFrameLen(conn)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// The stream is desynced past an oversized prefix, so the
				// connection cannot survive — but the client deserves the
				// typed refusal before the drop.
				s.armWriteDeadline(conn)
				_ = writeFrame(conn, "error", []byte(err.Error()))
			}
			return // disconnect
		}
		// Read deadline once a frame has started: a trickling sender
		// (slowloris) must deliver the whole frame within ReadTimeout no
		// matter how slowly it drips bytes.
		if s.readTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(s.readTimeout)); err != nil {
				return
			}
		}
		cmd, body, buf, err := readFramePayload(conn, n, readBuf)
		readBuf = buf
		if err != nil {
			return // disconnect
		}
		var out []byte
		if h := s.mux.handler(cmd); h != nil {
			out, err = h.ServeGlimmer(sess, body)
		} else {
			err = fmt.Errorf("%w %q", ErrUnknownCommand, cmd)
		}
		s.armWriteDeadline(conn)
		if err != nil {
			// Error strings cross the network; they carry no private data
			// by construction (glimmer errors are generic).
			if werr := writeFrame(conn, "error", []byte(err.Error())); werr != nil {
				return
			}
			continue
		}
		if werr := writeFrame(conn, "ok", out); werr != nil {
			return
		}
	}
}

func (s *Server) armWriteDeadline(conn net.Conn) {
	if s.writeTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
	}
}

// userHello resolves the hello's tenant, loads and provisions a fresh
// enclave for it, and starts the user handshake. Any previous session
// enclave on the connection is destroyed first.
func (s *Session) userHello(body []byte) ([]byte, error) {
	service, err := helloService(body)
	if err != nil {
		return nil, err
	}
	cfg, provision, err := s.srv.mux.ResolveHost(service)
	if err != nil {
		return nil, err
	}
	dev, err := glimmer.NewDevice(s.srv.platform, cfg)
	if err != nil {
		return nil, err
	}
	if provision != nil {
		if err := provision(dev); err != nil {
			dev.Destroy()
			return nil, errors.New("provisioning failed")
		}
	}
	out, err := dev.UserHello()
	if err != nil {
		dev.Destroy()
		return nil, err
	}
	if s.dev != nil {
		s.dev.Destroy()
	}
	s.dev = dev
	return out, nil
}

func (s *Session) userComplete(body []byte) ([]byte, error) {
	if s.dev == nil {
		return nil, errNoSession
	}
	return nil, s.dev.UserComplete(body)
}

func (s *Session) userContribute(body []byte) ([]byte, error) {
	if s.dev == nil {
		return nil, errNoSession
	}
	return s.dev.UserContribute(body)
}

// submitBatch ingests a client's batch frame into the mux's Ingestor.
func (s *Session) submitBatch(body []byte) ([]byte, error) {
	return s.ingestFrame(s.srv.mux.ingest, body)
}

// ingestFrame decodes a batch frame without copying (the items are views
// into the connection's frame buffer, valid for exactly as long as the
// blocking IngestBatch call below), hands it to ing, and encodes the
// accepted/rejected tallies.
//
// The shed gate runs before any decode work: when MaxInflightBatches
// batches are already inside the pipelines, the frame is refused with
// ErrShed immediately — backpressure as a reply, never as a hang.
func (s *Session) ingestFrame(ing Ingestor, body []byte) ([]byte, error) {
	srv := s.srv
	if max := srv.maxInflight; max > 0 {
		if srv.inflight.Add(1) > int64(max) {
			srv.inflight.Add(-1)
			srv.shedBatches.Add(1)
			return nil, fmt.Errorf("%w: %d contribution batches in flight", ErrShed, max)
		}
		defer srv.inflight.Add(-1)
	}
	items, err := wire.DecodeBatchInto(body, s.batchScratch)
	if err != nil {
		return nil, err
	}
	// Per-item errors stay server-side: the reply is tallies only, so the
	// frame stays O(1) regardless of batch size.
	accepted, _ := ing.IngestBatch(items)
	reply := binary.BigEndian.AppendUint32(make([]byte, 0, 8), uint32(accepted))
	reply = binary.BigEndian.AppendUint32(reply, uint32(len(items)-accepted))
	// Drop the item views before recycling the scratch: stale headers
	// would otherwise keep the (possibly replaced) frame buffer alive.
	clear(items)
	s.batchScratch = items[:0]
	return reply, nil
}

// ticketGrant forwards a signed ticket request to the ingest side's
// granter. The request and grant are both public by construction (the
// session key is derived, never carried), so they travel outside any
// attested session — exactly like the signed contributions they amortize.
// The body is a view into the connection's frame buffer; the granter
// decodes (copying) before the next frame can be read, satisfying the
// same must-not-retain contract as IngestBatch.
func (s *Session) ticketGrant(body []byte) ([]byte, error) {
	return s.srv.mux.granter.GrantTicket(body)
}
