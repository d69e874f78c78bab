package gaas

import (
	"fmt"

	"glimmers/internal/glimmer"
)

// A Handler serves one gaas command frame. The body is a view into the
// connection's frame buffer and is valid only until ServeGlimmer returns —
// handlers that keep data must copy it (the enclave boundary and the
// service pipelines already do). The reply travels back in an "ok" frame;
// a returned error travels back in an "error" frame with the connection
// left open, exactly like an http.Handler writing a non-200 status.
type Handler interface {
	ServeGlimmer(s *Session, body []byte) (reply []byte, err error)
}

// HandlerFunc adapts a function to a Handler, like http.HandlerFunc.
type HandlerFunc func(s *Session, body []byte) ([]byte, error)

// ServeGlimmer calls f(s, body).
func (f HandlerFunc) ServeGlimmer(s *Session, body []byte) ([]byte, error) { return f(s, body) }

// ServeMux routes command frames to handlers, in the shape of
// http.ServeMux: commands register like paths, tenants mount like
// sub-handlers. The built-in session commands (user-hello, user-complete,
// user-contribute) register when a host resolver mounts; submit-batch and
// ticket-grant register when an Ingestor does. Registration must finish
// before the mux serves — the route table is read lock-free on the frame
// hot path.
type ServeMux struct {
	handlers    map[string]Handler
	hosts       HostResolver
	ingest      Ingestor
	granter     TicketGranter
	fleetIngest Ingestor
	merger      PartialMerger
}

// NewServeMux returns a mux with no routes.
func NewServeMux() *ServeMux {
	return &ServeMux{handlers: make(map[string]Handler)}
}

// Handle registers h for command cmd, replacing any previous handler.
func (m *ServeMux) Handle(cmd string, h Handler) {
	if cmd == "" {
		panic("gaas: Handle with empty command")
	}
	m.handlers[cmd] = h
}

// MountResolver hosts every tenant the resolver knows (service.Registry
// in multi-tenant deployments) and registers the attested user-session
// commands that serve them.
func (m *ServeMux) MountResolver(r HostResolver) {
	m.hosts = r
	m.Handle(cmdUserHello, HandlerFunc((*Session).userHello))
	m.Handle(cmdUserComplete, HandlerFunc((*Session).userComplete))
	m.Handle(cmdUserContribute, HandlerFunc((*Session).userContribute))
}

// HandleIngest registers the submit-batch command, forwarding batches to
// ing, and — when ing also grants tickets (service.Registry) — the
// ticket-grant command.
func (m *ServeMux) HandleIngest(ing Ingestor) {
	m.ingest = ing
	m.Handle(cmdSubmitBatch, HandlerFunc((*Session).submitBatch))
	if g, ok := ing.(TicketGranter); ok {
		m.granter = g
		m.Handle(cmdTicketGrant, HandlerFunc((*Session).ticketGrant))
	}
}

// handler looks up cmd's route. The []byte key keeps the frame loop
// allocation-free (the string conversion in a map index does not copy).
func (m *ServeMux) handler(cmd []byte) Handler { return m.handlers[string(cmd)] }

// ResolveHost implements HostResolver by delegating to the mounted
// resolver, so a mux slots in anywhere a resolver does (Server
// measurements, nested muxes).
func (m *ServeMux) ResolveHost(service string) (glimmer.Config, func(*glimmer.Device) error, error) {
	if m.hosts == nil {
		return glimmer.Config{}, nil, fmt.Errorf("gaas: no tenants mounted")
	}
	return m.hosts.ResolveHost(service)
}
