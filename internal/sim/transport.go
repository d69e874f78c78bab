package sim

import (
	"net"
	"sync"
	"sync/atomic"

	"glimmers/internal/gaas"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

// A lane is one submission path to the service. Each lane serializes its
// own submissions — gaas lanes own a connection whose frame protocol is
// strictly request/response, and direct lanes match that shape so the
// Submitters knob bounds concurrent ingest callers identically on every
// transport. Different lanes proceed in parallel.
type lane struct {
	mu sync.Mutex
	// submit returns per-item errors when the transport can observe them
	// (direct), or errs == nil for tally-only transports (gaas, whose
	// submit-batch reply is accepted/rejected counts by design).
	submit func(batch [][]byte) (accepted int, errs []error, err error)
	close  func() error
}

// transportPool fans submissions across lanes round-robin. grant is the
// ticket control plane: the registry directly for the in-process
// transport, the gaas ticket-grant command on lane 0 otherwise.
type transportPool struct {
	lanes []*lane
	next  atomic.Uint32
	grant func(req []byte) ([]byte, error)
}

func (p *transportPool) submit(batch [][]byte) (int, []error, error) {
	l := p.lanes[int(p.next.Add(1))%len(p.lanes)]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.submit(batch)
}

func (p *transportPool) close() {
	for _, l := range p.lanes {
		if l.close != nil {
			_ = l.close()
		}
	}
}

// newDirectPool builds in-process lanes over the registry. The registry is
// concurrency-safe, but each lane still serializes its own submissions so
// Submitters bounds the concurrent IngestBatch callers exactly as it
// bounds gaas connections — the two transports exercise the same
// concurrency shape.
func newDirectPool(reg *service.Registry, n int) *transportPool {
	p := &transportPool{lanes: make([]*lane, n), grant: reg.GrantTicket}
	for i := range p.lanes {
		p.lanes[i] = &lane{
			submit: func(batch [][]byte) (int, []error, error) {
				accepted, errs := reg.IngestBatch(batch)
				return accepted, errs, nil
			},
		}
	}
	return p
}

// newGaasPool dials n gaas clients (each with its own attested handshake,
// like n independent submitting hosts) and wraps them as tally-only lanes.
func newGaasPool(dial func() (net.Conn, error), verifier *tee.QuoteVerifier, serviceName string, n int) (*transportPool, error) {
	p := &transportPool{lanes: make([]*lane, 0, n)}
	for i := 0; i < n; i++ {
		conn, err := dial()
		if err != nil {
			p.close()
			return nil, err
		}
		client, err := gaas.NewClient(conn, gaas.DialConfig{Service: serviceName, Verifier: verifier})
		if err != nil {
			conn.Close()
			p.close()
			return nil, err
		}
		l := &lane{
			submit: func(batch [][]byte) (int, []error, error) {
				accepted, _, err := client.SubmitBatch(batch)
				return accepted, nil, err
			},
			close: client.Close,
		}
		if i == 0 {
			// Ticket grants ride lane 0's connection; the lane lock
			// serializes them with that lane's submissions (the frame
			// protocol is strictly request/response per connection).
			p.grant = func(req []byte) ([]byte, error) {
				l.mu.Lock()
				defer l.mu.Unlock()
				return client.RequestTicket(req)
			}
		}
		p.lanes = append(p.lanes, l)
	}
	return p, nil
}
