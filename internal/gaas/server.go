package gaas

import (
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
)

// ServerConfig assembles a Server, in the shape of http.Server: the mux
// (or the pieces to build one), the transport security, and the
// governance knobs for a public-facing edge. The zero value of every knob
// means "off" — tests drive connections lock-step and wall-clock limits
// would only make them flaky — so hardened deployments (cmd/glimmerd) opt
// in explicitly.
type ServerConfig struct {
	// Platform hosts the per-session enclaves. Required when session
	// commands are mounted (Hosts or a mux with tenants).
	Platform *tee.Platform

	// Mux routes command frames. Nil builds a fresh mux from Hosts and
	// Ingest; non-nil is used as-is (Hosts and Ingest still register onto
	// it when set).
	Mux *ServeMux

	// Hosts mounts the attested user-session commands for every tenant
	// the resolver knows (service.Registry).
	Hosts HostResolver

	// Ingest enables submit-batch (and ticket-grant when the Ingestor
	// also grants tickets).
	Ingest Ingestor

	// TLS, when non-nil, wraps every accepted connection server-side.
	// Endpoint privacy only: the trust story stays with attestation —
	// clients pin enclave measurements, not certificates (see KnownHosts).
	TLS *tls.Config

	// ReadTimeout bounds reading one frame once its length prefix has
	// arrived, so a trickling sender cannot hold a connection mid-frame
	// (slowloris). Zero means no limit.
	ReadTimeout time.Duration

	// WriteTimeout bounds writing one reply frame. Zero means no limit.
	WriteTimeout time.Duration

	// IdleTimeout bounds how long a connection may sit between frames;
	// expiry reaps the connection and destroys its session enclave. Zero
	// means no limit.
	IdleTimeout time.Duration

	// MaxConns caps concurrently served connections; excess connections
	// are refused with an ErrShed error frame, never left hanging in an
	// accept queue. Zero means no cap.
	MaxConns int

	// MaxConnsPerIP caps concurrently served connections per client IP,
	// so one flooding host cannot consume the whole MaxConns budget.
	// Zero means no cap.
	MaxConnsPerIP int

	// MaxInflightBatches caps submit-batch frames concurrently inside the
	// ingest pipelines; excess batches are refused with ErrShed instead
	// of queueing behind a saturated pipeline. Zero means no cap.
	MaxInflightBatches int
}

// Server hosts Glimmer enclaves for remote clients: one freshly loaded,
// freshly provisioned enclave per user session, so client sessions cannot
// interfere. Commands route through its ServeMux; the transport is
// governed by the ServerConfig deadlines and caps.
type Server struct {
	platform *tee.Platform
	mux      *ServeMux
	tlsConf  *tls.Config

	readTimeout  time.Duration
	writeTimeout time.Duration
	idleTimeout  time.Duration

	maxConns    int
	maxPerIP    int
	maxInflight int

	// Connection tracking for graceful shutdown and the per-IP ledger.
	connMu  sync.Mutex
	conns   map[net.Conn]string // conn -> client IP
	perIP   map[string]int
	closing bool
	connWG  sync.WaitGroup

	inflight         atomic.Int64
	refusedConns     atomic.Int64
	refusedPerIP     atomic.Int64
	shedBatches      atomic.Int64
	forwardedBatches atomic.Int64
}

// New assembles a Server from cfg.
func New(cfg ServerConfig) *Server {
	mux := cfg.Mux
	if mux == nil {
		mux = NewServeMux()
	}
	if cfg.Hosts != nil {
		mux.MountResolver(cfg.Hosts)
	}
	if cfg.Ingest != nil {
		mux.HandleIngest(cfg.Ingest)
	}
	return &Server{
		platform:     cfg.Platform,
		mux:          mux,
		tlsConf:      cfg.TLS,
		readTimeout:  cfg.ReadTimeout,
		writeTimeout: cfg.WriteTimeout,
		idleTimeout:  cfg.IdleTimeout,
		maxConns:     cfg.MaxConns,
		maxPerIP:     cfg.MaxConnsPerIP,
		maxInflight:  cfg.MaxInflightBatches,
		conns:        make(map[net.Conn]string),
		perIP:        make(map[string]int),
	}
}

// Mux returns the server's command router, for registering additional
// handlers before Serve.
func (s *Server) Mux() *ServeMux { return s.mux }

// MeasurementFor returns the measurement clients of the named tenant must
// pin.
func (s *Server) MeasurementFor(service string) (tee.Measurement, error) {
	cfg, _, err := s.mux.ResolveHost(service)
	if err != nil {
		return tee.Measurement{}, err
	}
	return glimmer.BuildBinary(cfg).Measurement(), nil
}

// EdgeStats is a snapshot of the serving edge's counters: its governance
// refusals and the batches peers forwarded.
type EdgeStats struct {
	// ActiveConns is the number of connections currently being served.
	ActiveConns int
	// RefusedMaxConns counts connections refused by the MaxConns cap.
	RefusedMaxConns int64
	// RefusedPerIP counts connections refused by the MaxConnsPerIP cap.
	RefusedPerIP int64
	// ShedBatches counts submit-batch frames refused by the
	// MaxInflightBatches gate.
	ShedBatches int64
	// ForwardedBatches counts batches that arrived on fleet-forward. (A
	// coordinator's partial seals are counted by its service.HubStats.)
	ForwardedBatches int64
}

// Stats snapshots the edge counters.
func (s *Server) Stats() EdgeStats {
	s.connMu.Lock()
	active := len(s.conns)
	s.connMu.Unlock()
	return EdgeStats{
		ActiveConns:      active,
		RefusedMaxConns:  s.refusedConns.Load(),
		RefusedPerIP:     s.refusedPerIP.Load(),
		ShedBatches:      s.shedBatches.Load(),
		ForwardedBatches: s.forwardedBatches.Load(),
	}
}

// Serve accepts connections until the listener closes. When the server
// was configured with TLS, every accepted connection is wrapped
// server-side (the handshake happens lazily on first frame I/O, under the
// same deadlines as the frames themselves).
func (s *Server) Serve(ln net.Listener) error {
	if s.tlsConf != nil {
		ln = tls.NewListener(ln, s.tlsConf)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("gaas: accept: %w", err)
		}
		admitted, reason := s.admit(conn)
		if reason != nil {
			go s.refuseConn(conn, reason)
			continue
		}
		if !admitted {
			conn.Close()
			return nil
		}
		go func() {
			defer s.release(conn)
			s.handleConn(conn)
		}()
	}
}

// connIP extracts the client IP used for the per-IP ledger. Transports
// without host:port addresses (in-memory pipes) fall back to the whole
// address string, which still groups connections from the same fake peer.
func connIP(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// admit applies the connection caps and registers the connection.
// admitted=false with a nil reason means the server is closing.
func (s *Server) admit(conn net.Conn) (admitted bool, reason error) {
	ip := connIP(conn)
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closing {
		return false, nil
	}
	if s.maxConns > 0 && len(s.conns) >= s.maxConns {
		s.refusedConns.Add(1)
		return false, fmt.Errorf("%w: connection limit reached", ErrShed)
	}
	if s.maxPerIP > 0 && s.perIP[ip] >= s.maxPerIP {
		s.refusedPerIP.Add(1)
		return false, fmt.Errorf("%w: per-address connection limit reached", ErrShed)
	}
	s.conns[conn] = ip
	s.perIP[ip]++
	s.connWG.Add(1)
	return true, nil
}

func (s *Server) release(conn net.Conn) {
	s.connMu.Lock()
	if ip, ok := s.conns[conn]; ok {
		delete(s.conns, conn)
		if s.perIP[ip]--; s.perIP[ip] <= 0 {
			delete(s.perIP, ip)
		}
	}
	s.connMu.Unlock()
	s.connWG.Done()
}

// refuseTimeout bounds the courtesy error frame a refused connection
// gets: a refusal must never become a slot the flood can hold open.
const refuseTimeout = 5 * time.Second

// refuseConn answers an over-limit connection with an ErrShed error frame
// and drops it. The refusal goroutine is not tracked by the shutdown
// group — it is deadline-bounded and owns nothing but the doomed conn.
func (s *Server) refuseConn(conn net.Conn, reason error) {
	defer conn.Close()
	d := refuseTimeout
	if s.writeTimeout > 0 && s.writeTimeout < d {
		d = s.writeTimeout
	}
	if err := conn.SetDeadline(time.Now().Add(d)); err != nil {
		return
	}
	_ = writeFrame(conn, "error", []byte(reason.Error()))
}

// Shutdown stops the server gracefully: the caller closes the listener
// (ending Serve), Shutdown closes every live connection and waits for the
// handlers to drain. A handler blocked inside IngestBatch finishes that
// batch — the contributions land in their pipelines — before its reply
// write fails and the handler exits, so no in-flight batch is lost.
func (s *Server) Shutdown() {
	s.connMu.Lock()
	s.closing = true
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.connWG.Wait()
}
