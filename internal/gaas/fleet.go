package gaas

import (
	"context"
	"errors"
	"fmt"

	"glimmers/internal/fleet"
	"glimmers/internal/wire"
)

// Fleet plane: the commands two glimmerd processes use to cooperate on
// one round. fleet-forward carries a batch from a peer node to the shard
// owner (same body and reply as submit-batch, separate command so the
// governance counters tell peer traffic from client traffic), and
// fleet-merge carries one node's signed partial seal to the merge
// coordinator, which replies with the round's wire.MergeResult. The
// FleetClient below is the client half: it routes batches across a node
// set by consistent hashing, so contributions land on their shard owner
// in the first place.

const (
	cmdFleetForward = "fleet-forward"
	cmdFleetMerge   = "fleet-merge"
)

// PartialMerger is the coordinator side of the merge plane
// (service.MergeHub implements it). MergePartialSeal must not retain the
// seal bytes after it returns — they are a view into the connection's
// frame buffer.
type PartialMerger interface {
	MergePartialSeal(seal []byte) ([]byte, error)
}

// HandleFleet registers the fleet plane: forward (usually the same
// Ingestor as HandleIngest) serves fleet-forward, merger serves
// fleet-merge. Either may be nil to register only the other role — a
// pure aggregation node has no merger, a dedicated coordinator may have
// no ingest.
func (m *ServeMux) HandleFleet(forward Ingestor, merger PartialMerger) {
	if forward != nil {
		m.fleetIngest = forward
		m.Handle(cmdFleetForward, HandlerFunc((*Session).fleetForward))
	}
	if merger != nil {
		m.merger = merger
		m.Handle(cmdFleetMerge, HandlerFunc((*Session).fleetMerge))
	}
}

// fleetForward ingests a batch forwarded by a peer node: submitBatch against
// the fleet Ingestor, counted apart. A frame the shed gate refused never
// arrived as far as the counter.
func (s *Session) fleetForward(body []byte) ([]byte, error) {
	reply, err := s.ingestFrame(s.srv.mux.fleetIngest, body)
	if !errors.Is(err, ErrShed) {
		s.srv.forwardedBatches.Add(1)
	}
	return reply, err
}

// fleetMerge hands one partial seal to the coordinator and replies with
// the merge's state. A refused seal is an "error" frame carrying the
// refusal (wire-crossing sentinels survive the trip), and bumps the
// refused counter; the merge itself is untouched by construction.
func (s *Session) fleetMerge(body []byte) ([]byte, error) {
	srv := s.srv
	srv.partialsReceived.Add(1)
	reply, err := srv.mux.merger.MergePartialSeal(body)
	if err != nil {
		srv.partialsRefused.Add(1)
		return nil, err
	}
	return reply, nil
}

// FleetStats is a snapshot of the fleet plane's counters — the merge/
// forward counterpart of EdgeStats.
type FleetStats struct {
	// PartialsSent counts partial seals this process shipped to a
	// coordinator (bumped by the node role via NotePartialSent).
	PartialsSent int64
	// PartialsReceived counts partial seals that arrived on fleet-merge.
	PartialsReceived int64
	// PartialsRefused counts received seals the coordinator turned away.
	PartialsRefused int64
	// ForwardedBatches counts batches that arrived on fleet-forward.
	ForwardedBatches int64
}

// FleetStats snapshots the fleet-plane counters.
func (s *Server) FleetStats() FleetStats {
	return FleetStats{
		PartialsSent:     s.partialsSent.Load(),
		PartialsReceived: s.partialsReceived.Load(),
		PartialsRefused:  s.partialsRefused.Load(),
		ForwardedBatches: s.forwardedBatches.Load(),
	}
}

// NotePartialSent records one partial seal shipped by this process's
// node role, so drain output reads all fleet counters from one place.
func (s *Server) NotePartialSent() { s.partialsSent.Add(1) }

// ForwardBatch ships a batch to a peer node over fleet-forward — the
// node-to-node variant of SubmitBatch with identical size limits and
// tally reply.
func (c *Client) ForwardBatch(raws [][]byte) (accepted, rejected int, err error) {
	return c.submitBatchCmd(cmdFleetForward, raws)
}

// MergePartialSeal ships a signed partial seal to the merge coordinator
// and returns the round's updated merge state.
func (c *Client) MergePartialSeal(seal []byte) (wire.MergeResult, error) {
	reply, err := c.roundTrip(cmdFleetMerge, seal)
	if err != nil {
		return wire.MergeResult{}, err
	}
	return wire.DecodeMergeResult(reply)
}

// FleetNode names one glimmerd node: its ring identity and its address.
type FleetNode struct {
	ID   uint32
	Addr string
}

// FleetConfig shapes a FleetClient: the node set, the ring geometry, and
// the per-connection dial configuration. Forwarding is public-frame
// traffic, so the dial runs sessionless regardless of cfg.Dial.NoSession.
type FleetConfig struct {
	Nodes  []FleetNode
	VNodes int
	Dial   DialConfig
}

// FleetClient routes contribution batches across a glimmerd node set by
// consistent hashing — the client-side half of sharding. Each raw in a
// batch is peeked (service, round) on the zero-alloc path and grouped to
// its owner node; one SubmitBatch round trip goes to each owner that has
// items. Not safe for concurrent use; one FleetClient per goroutine,
// like Client.
type FleetClient struct {
	ring   *fleet.Ring
	conns  map[uint32]*Client
	addrs  map[uint32]string
	dial   DialConfig
	groups map[uint32][][]byte // reused per SubmitBatch call
	sent   int64
}

// DialFleet connects to every node in the set. Connections are
// sessionless (forwarding carries only public frames). A node that
// cannot be reached fails the dial — use Rehome to route around a node
// that dies later.
func DialFleet(ctx context.Context, cfg FleetConfig) (*FleetClient, error) {
	ids := make([]uint32, 0, len(cfg.Nodes))
	addrs := make(map[uint32]string, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		ids = append(ids, n.ID)
		addrs[n.ID] = n.Addr
	}
	ring, err := fleet.NewRing(ids, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	dial := cfg.Dial
	dial.NoSession = true
	fc := &FleetClient{
		ring:   ring,
		conns:  make(map[uint32]*Client, len(cfg.Nodes)),
		addrs:  addrs,
		dial:   dial,
		groups: make(map[uint32][][]byte, len(cfg.Nodes)),
	}
	for _, n := range cfg.Nodes {
		c, err := DialContext(ctx, n.Addr, dial)
		if err != nil {
			fc.Close()
			return nil, fmt.Errorf("gaas: fleet dial node %d: %w", n.ID, err)
		}
		fc.conns[n.ID] = c
	}
	return fc, nil
}

// Ring exposes the client's current placement view (it shrinks on
// Rehome).
func (fc *FleetClient) Ring() *fleet.Ring { return fc.ring }

// Sent reports how many batches have been shipped across all nodes.
func (fc *FleetClient) Sent() int64 { return fc.sent }

// SubmitBatch routes each raw to its owner node and submits one batch
// per owner. Raws that cannot be peeked are counted rejected without a
// round trip. The first transport error aborts (partial tallies
// returned); per-item rejections are part of the tallies, as on Client.
func (fc *FleetClient) SubmitBatch(raws [][]byte) (accepted, rejected int, err error) {
	// However this returns, each group is truncated in place with its views
	// cleared: the backing arrays are reused by the next call, and an idle
	// client must not keep the caller's frame reachable.
	defer func() {
		for node, group := range fc.groups {
			clear(group)
			fc.groups[node] = group[:0]
		}
	}()
	for _, raw := range raws {
		owner, perr := fc.ring.OwnerOf(raw)
		if perr != nil {
			rejected++
			continue
		}
		fc.groups[owner] = append(fc.groups[owner], raw)
	}
	// Iterate the ring's stable node order, not the map, so submission
	// order is deterministic (the sim depends on it).
	for _, node := range fc.ring.Nodes() {
		group := fc.groups[node]
		if len(group) == 0 {
			continue
		}
		c := fc.conns[node]
		if c == nil {
			c, err = DialContext(context.Background(), fc.addrs[node], fc.dial)
			if err != nil {
				return accepted, rejected, fmt.Errorf("gaas: fleet node %d: %w", node, err)
			}
			fc.conns[node] = c
		}
		a, r, serr := c.SubmitBatch(group)
		accepted += a
		rejected += r
		if serr != nil {
			return accepted, rejected, fmt.Errorf("gaas: fleet node %d: %w", node, serr)
		}
		fc.sent++
	}
	return accepted, rejected, nil
}

// Rehome removes a dead node from the ring: its shards move to their
// arcs' successors and its connection is dropped. Contributions already
// acknowledged by the dead node are NOT resubmitted — its partial seal
// (recovered from durable state) still covers them, and a resubmission
// would collide with that partial's digests at merge time.
func (fc *FleetClient) Rehome(node uint32) error {
	ring, err := fc.ring.Without(node)
	if err != nil {
		return err
	}
	fc.ring = ring
	if c := fc.conns[node]; c != nil {
		_ = c.Close()
	}
	delete(fc.conns, node)
	delete(fc.addrs, node)
	delete(fc.groups, node)
	return nil
}

// Close drops every node connection.
func (fc *FleetClient) Close() error {
	var first error
	for _, c := range fc.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	clear(fc.conns)
	return first
}
