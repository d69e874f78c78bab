// Package node assembles one Glimmer-as-a-service host (§4.2 of the
// paper): a tenant Registry, the durable Store under it, the governed gaas
// edge in front of it, and the node's fleet role, all from one Config. It
// owns the only copy of the start order — place and register tenants →
// open store → load the node key → attach audit → recover → start
// compaction → mount the merge route → serve — and of the drain order —
// stop compaction → close listener → settle handlers → seal + tally →
// ship and close → snapshot → close. It also
// owns the template every node hosts a tenant from (Hosting), the
// compaction policy (compact.go) and where a fleet node's sealing
// identity comes from (NodeSeal). cmd/glimmerd is flags in front of
// Start; internal/sim runs every fault step against the same assembly,
// its tenants hosted from the same template.
package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"glimmers/internal/audit"
	"glimmers/internal/durable"
	"glimmers/internal/fixed"
	"glimmers/internal/fleet"
	"glimmers/internal/gaas"
	"glimmers/internal/service"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// DefaultEdge is the edge glimmerd serves when no flags are given: the
// governance of a public-facing node. A zero gaas.ServerConfig knob means
// "off", so every node this repository starts begins from this one and
// changes only what a glimmerd flag could; Start fills in Hosts and
// Ingest, the caller Platform and TLS.
func DefaultEdge() gaas.ServerConfig {
	return gaas.ServerConfig{
		ReadTimeout:        30 * time.Second,
		WriteTimeout:       30 * time.Second,
		IdleTimeout:        2 * time.Minute,
		MaxConns:           4096,
		MaxConnsPerIP:      64,
		MaxInflightBatches: 256,
	}
}

// Hosting is the template every node this repository starts registers a
// tenant from. An unattended node's rounds march forward forever, so a
// tenant evicts its least-filled round at the quota instead of wedging
// ingest, and refuses rounds far from the ones in flight (the round number
// is client-chosen). Session tickets are the amortized fast path: one
// signature-verified grant per session, MACs thereafter. Workers is left
// to GOMAXPROCS, and Owns to Start, which places the tenant on Config.Ring.
func Hosting(ticketTTL int64) service.TenantConfig {
	h := service.TenantConfig{EvictAtCap: true, RoundWindow: 16}
	if ticketTTL > 0 {
		h.TicketPolicy = &service.TicketConfig{TTL: ticketTTL}
	}
	return h
}

// shipTimeout bounds dialing the merge coordinator at drain, and each
// call on that connection. A variable for tests.
var shipTimeout = 30 * time.Second

// Config describes one node, in the shape of gaas.ServerConfig one level
// up: plain fields, one Start.
type Config struct {
	// Tenants are registered in order on a fresh Registry, before any
	// durable state is recovered into it. They share its live-round
	// budget, service.DefaultMaxTotalRounds.
	Tenants []service.TenantConfig

	// StateDir, when set, makes the node durable: a durable.Store over it
	// under the WAL group-commit tuning, recovered at start, compacted
	// while serving and snapshotted at drain, with recovery, snapshot,
	// compaction and WAL-failure events appended to
	// <StateDir>/audit.log. Only aggregates, digests, counters and ticket
	// keys are persisted — never raw contributions (README, "Durability").
	StateDir string
	WAL      durable.Config

	// Listener, when non-nil, is served by a gaas edge built from Edge
	// (Platform, TLS, deadlines and caps, starting from DefaultEdge; Start
	// fills in Hosts and Ingest).
	// The node owns the listener from Start on. A node without one is
	// driven through Registry directly.
	Listener net.Listener
	Edge     gaas.ServerConfig

	// NodeID is this node's ring identity (0 = standalone). A fleet node
	// signs its partial seals with the key in <StateDir>/node.key, made on
	// its first start (one key per process without a StateDir).
	// Coordinators pin that key on first use, so only a node restarted
	// from its state directory merges again under the same NodeID.
	NodeID uint32
	// Ring, when non-nil, is the fleet's ring over its peers: Start makes
	// each tenant create only the rounds it places on NodeID
	// (service.TenantConfig.Owns), so a round has one holder.
	Ring *fleet.Ring
	// Hub, when non-nil, makes the node the merge coordinator serving
	// fleet-merge. Drain merges each round no coordinator has answered at
	// Coordinator (one transport: TLS exactly when Edge serves it, unverified,
	// as the seal's signature carries the trust), else at a fleet node's Hub.
	Hub         *service.MergeHub
	Coordinator string
}

// Node is one running life of the assembly.
type Node struct {
	cfg       Config
	reg       *service.Registry
	store     *durable.Store
	auditFile *os.File
	recovered durable.RecoverStats
	// key signs the node's partial seals (nil without a NodeID).
	key *xcrypto.SigningKey
	// compactor runs the compaction policy of a durable node (nil
	// without a StateDir).
	compactor *compactor
	server    *gaas.Server
	// done closes when the accept loop returns; serveErr is why it did.
	done     chan struct{}
	serveErr error
}

// Start assembles and starts a node. On failure everything it acquired —
// the listener included — is released.
func Start(cfg Config) (*Node, error) {
	n := &Node{cfg: cfg, reg: service.NewRegistry(service.DefaultMaxTotalRounds)}
	if err := n.start(); err != nil {
		n.Kill()
		return nil, err
	}
	return n, nil
}

func (n *Node) start() error {
	for _, t := range n.cfg.Tenants {
		if n.cfg.Ring != nil {
			t.Owns = n.cfg.Ring.Owns(n.cfg.NodeID, t.Name)
		}
		if _, err := n.reg.AddTenant(t); err != nil {
			return fmt.Errorf("node: tenant %q: %w", t.Name, err)
		}
	}
	var err error
	if n.cfg.StateDir != "" {
		if n.store, err = durable.OpenConfig(n.cfg.StateDir, n.cfg.WAL); err != nil {
			return fmt.Errorf("node: state dir: %w", err)
		}
	}
	if n.cfg.NodeID != 0 {
		if n.key, err = n.nodeKey(); err != nil {
			return fmt.Errorf("node: %w", err)
		}
	}
	if n.store != nil {
		n.auditFile, err = os.OpenFile(filepath.Join(n.cfg.StateDir, "audit.log"), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("node: audit log: %w", err)
		}
		log := audit.NewLog(n.auditFile, nil)
		n.store.SetAudit(log)
		if n.recovered, err = n.store.Recover(n.reg); err != nil {
			return fmt.Errorf("node: recover: %w", err)
		}
		n.compactor = startCompactor(n.store, n.reg, log)
	}
	if n.cfg.Listener == nil {
		return nil
	}
	edge := n.cfg.Edge
	edge.Hosts, edge.Ingest = n.reg, n.reg
	n.server = gaas.New(edge)
	// Routes are registered before Serve starts: the route table is read
	// lock-free on the frame path. The one fleet command a node serves is
	// a coordinator's fleet-merge.
	if n.cfg.Hub != nil {
		n.server.Mux().HandleFleet(nil, n.cfg.Hub)
	}
	n.done = make(chan struct{})
	go func() {
		n.serveErr = n.server.Serve(n.cfg.Listener)
		close(n.done)
	}()
	return nil
}

// nodeKey is the key a fleet node seals with: its state directory's, or
// a fresh one for a node that keeps no state.
func (n *Node) nodeKey() (*xcrypto.SigningKey, error) {
	if n.store == nil {
		return xcrypto.NewSigningKey()
	}
	return n.store.NodeKey()
}

// NodeSeal is the identity this node signs its partial seals with: its
// ring ID and its key. Its seal covers the whole round, since a fleet node
// creates only the rounds its ring gives it, so a merge expects one
// partial. The measurement is zero: the node asserts it itself and a
// coordinator only pins what the first seal carried, so it never carried
// trust — the key is the node's whole identity.
func (n *Node) NodeSeal() service.NodeSeal {
	return service.NodeSeal{NodeID: n.cfg.NodeID, ShardCount: 1, Key: n.key}
}

// Registry is the node's tenant registry: the in-process ingest entry.
func (n *Node) Registry() *service.Registry { return n.reg }

// Store is the node's durable store (nil without a StateDir).
func (n *Node) Store() *durable.Store { return n.store }

// Server is the node's gaas edge (nil without a Listener).
func (n *Node) Server() *gaas.Server { return n.server }

// Recovered is what Start found in the state directory.
func (n *Node) Recovered() durable.RecoverStats { return n.recovered }

// Done is closed when the accept loop ends — on Drain or Kill, or on its
// own when accepting fails, which the next Drain reports.
func (n *Node) Done() <-chan struct{} { return n.done }

// Role names the node's fleet role for status and drain lines.
func (n *Node) Role() string {
	id, coordinator := n.cfg.NodeID, n.cfg.Hub != nil
	switch {
	case id != 0 && coordinator:
		return fmt.Sprintf("node-%d+coordinator", id)
	case id != 0:
		return fmt.Sprintf("node-%d", id)
	case coordinator:
		return "coordinator"
	}
	return "standalone"
}

// stopServing closes the listener, waits for the accept loop, and settles
// every connection handler: a handler inside IngestBatch finishes that
// batch before it exits, so no in-flight batch is lost.
func (n *Node) stopServing() error {
	if n.cfg.Listener != nil {
		_ = n.cfg.Listener.Close()
	}
	if n.server == nil {
		return nil
	}
	<-n.done
	n.server.Shutdown()
	return n.serveErr
}

// Kill ends the node the way a crash would: once compaction has stopped
// (a snapshot in flight completes), the store is abandoned, with no write
// and no fsync, so records still staged in the group-commit buffer die
// with it — the documented fire-and-forget loss window — and then the
// edge is torn down. Nothing of the dead life (fd, flusher, compactor,
// accept loop, handlers) outlives the call.
func (n *Node) Kill() {
	n.compactor.stop()
	if n.store != nil {
		n.store.Abandon()
	}
	_ = n.stopServing()
	if n.auditFile != nil {
		_ = n.auditFile.Close()
	}
}

// Report is what a drained node did, as values: glimmerd prints it, tests
// read it.
type Report struct {
	Role string
	Edge gaas.EdgeStats
	// Tenants, in name order, with every round sealed. RoutingRejected
	// counts what never reached a tenant (unroutable, unknown tenant).
	Tenants         []TenantReport
	RoutingRejected int
	// Shipped is one entry per partial seal offered to a coordinator;
	// Merges is the state of every merge Config.Hub still holds, by service
	// and round, and Hub (nil without one) its ledger over every merge it
	// ever ran — a hub retires completed merges, so the totals live there.
	Shipped []Shipment
	Merges  []wire.MergeResult
	Hub     *service.HubStats
	// WAL is the store's counters before the final snapshot; Snapshotted
	// reports that the snapshot was written and the store closed cleanly.
	WAL         durable.Stats
	Snapshotted bool
}

// TenantReport is one tenant's final aggregation state. A refusal is
// counted once: by the round's pipeline, or by the manager when no round
// admitted it. Dropped is service.RoundManager.Dropped: contributions
// accepted into rounds forgotten before their seal.
type TenantReport struct {
	Name             string
	Rounds           []RoundReport
	ManagerRejected  int
	PipelineRejected int
	Dropped          int
}

// RoundReport is one sealed round.
type RoundReport struct {
	Round    uint64
	Accepted int
	Sum      fixed.Vector
}

// Shipment is the outcome of shipping one round's partial seal: the
// coordinator's merge state after absorbing it, or why it did not.
type Shipment struct {
	Merge wire.MergeResult
	Err   error
}

// sealedRound is a round Drain found sealed, not closed: not yet shipped.
type sealedRound struct {
	tenant string
	round  uint64
	p      *service.Pipeline
}

// Drain stops the node gracefully and reports what it held. The returned
// error is an accept-loop, snapshot or close failure; the Report is
// filled as far as the drain got.
func (n *Node) Drain() (Report, error) {
	n.compactor.stop()
	rep := Report{Role: n.Role()}
	err := n.stopServing()
	var unshipped []sealedRound
	for _, t := range n.reg.Tenants() {
		m := t.Manager()
		tr := TenantReport{Name: t.Name(), ManagerRejected: m.Rejected(), Dropped: m.Dropped()}
		for _, round := range m.Rounds() {
			p, ok := m.Lookup(round)
			if !ok {
				continue
			}
			// Fix the cohort; a closed round has gone downstream already.
			if p.Seal() == nil {
				unshipped = append(unshipped, sealedRound{t.Name(), round, p})
			}
			tr.PipelineRejected += p.Rejected()
			tr.Rounds = append(tr.Rounds, RoundReport{Round: round, Accepted: p.Count(), Sum: p.Sum()})
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	rep.RoutingRejected = n.reg.Rejected()
	// Ship before snapshotting: every cohort is fixed, so each export is
	// the round's final partial, and the image keeps each answered close.
	if len(unshipped) > 0 {
		rep.Shipped = n.shipPartialSeals(unshipped)
	}
	if hub := n.cfg.Hub; hub != nil {
		st := hub.Stats()
		rep.Hub = &st
		for svc, rounds := range hub.Merges() {
			for _, round := range rounds {
				if m, ok := hub.Lookup(svc, round); ok {
					rep.Merges = append(rep.Merges, m.Result())
				}
			}
		}
		sort.Slice(rep.Merges, func(i, j int) bool {
			a, b := rep.Merges[i], rep.Merges[j]
			return a.Service < b.Service || a.Service == b.Service && a.Round < b.Round
		})
	}
	if n.server != nil {
		rep.Edge = n.server.Stats()
	}
	if n.store != nil {
		rep.WAL = n.store.Stats()
		serr := n.store.Snapshot(n.reg)
		cerr := errors.Join(n.store.Close(), n.auditFile.Close())
		rep.Snapshotted = serr == nil && cerr == nil
		err = errors.Join(err, serr, cerr)
	}
	return rep, err
}

// shipPartialSeals merges each round's signed partial seal at the node's
// coordinator (Config.Hub or Config.Coordinator) and closes the round once
// the coordinator answers — absorbs the seal or refuses it with one of
// wire.MergeRefusals — so it ships once (a node that dies before the close
// is durable re-sends it, and reads the replay refusal as the answer). Any
// other failure is reported, not fatal, and leaves the round sealed. A dial
// or transport failure ends the connection: no later round is sent on it,
// so a coordinator that never answers holds Drain for one dial and one
// call, and every round it held up ships at the next drain.
func (n *Node) shipPartialSeals(rounds []sealedRound) []Shipment {
	merge := func(seal []byte) (wire.MergeResult, error) {
		reply, err := n.cfg.Hub.MergePartialSeal(seal)
		if err != nil {
			return wire.MergeResult{}, err
		}
		return wire.DecodeMergeResult(reply)
	}
	var lost error // the dial or transport failure that ended the connection
	if n.cfg.Coordinator != "" {
		ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
		defer cancel()
		dial := gaas.DialConfig{NoSession: true, CallTimeout: shipTimeout}
		if n.cfg.Edge.TLS != nil {
			dial.TLS = gaas.InsecureClientTLS()
		}
		var client *gaas.Client
		if client, lost = gaas.DialContext(ctx, n.cfg.Coordinator, dial); lost == nil {
			defer client.Close()
			merge = client.MergePartialSeal
		}
	} else if n.cfg.Hub == nil || n.cfg.NodeID == 0 {
		return nil // no coordinator: the rounds stay sealed
	}
	seal := n.NodeSeal()
	out := make([]Shipment, len(rounds))
	for i, r := range rounds {
		raw, err := r.p.PartialSeal(seal)
		if err != nil {
			out[i].Err = fmt.Errorf("partial seal %s round %d: %w", r.tenant, r.round, err)
			continue
		}
		if err = lost; err == nil {
			out[i].Merge, err = merge(raw)
		}
		if err == nil || slices.ContainsFunc(wire.MergeRefusals, func(s error) bool { return errors.Is(err, s) }) {
			r.p.Close()
		}
		if errors.Is(err, gaas.ErrRemote) || err != nil && n.cfg.Coordinator == "" {
			out[i].Err = fmt.Errorf("coordinator refused %s round %d: %w", r.tenant, r.round, err)
		} else if err != nil {
			lost = err
			out[i].Err = fmt.Errorf("shipping %s round %d: %w", r.tenant, r.round, err)
		}
	}
	return out
}
