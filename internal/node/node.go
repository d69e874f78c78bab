// Package node assembles one Glimmer-as-a-service host (§4.2 of the
// paper): a tenant Registry, the durable Store under it, the governed gaas
// edge in front of it, and the node's fleet role. It owns the only copy of
// the start order — register tenants → open store → load the node key →
// attach audit → recover → start compaction → mount fleet routes → serve —
// and of the drain order — stop compaction → close listener → settle
// handlers → seal + tally → ship partial seals → snapshot → close. It also
// owns the compaction policy (compact.go) and where a fleet node's
// sealing identity comes from (NodeSeal). cmd/glimmerd is flags in front
// of Start; internal/sim runs every fault step against the same assembly.
package node

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"glimmers/internal/audit"
	"glimmers/internal/durable"
	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/service"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The governance defaults of a public-facing node (glimmerd's flag
// defaults). A zero gaas.ServerConfig knob means "off", so a deployment
// opts in by naming these.
const (
	DefaultReadTimeout        = 30 * time.Second
	DefaultWriteTimeout       = 30 * time.Second
	DefaultIdleTimeout        = 2 * time.Minute
	DefaultMaxConns           = 4096
	DefaultMaxConnsPerIP      = 64
	DefaultMaxInflightBatches = 256
	// An unattended node's rounds march forward forever, so a tenant
	// evicts its least-filled round at the quota instead of wedging ingest
	// (EvictAtCap), and refuses rounds far from the ones in flight — the
	// round number is client-chosen (RoundWindow).
	DefaultEvictAtCap  = true
	DefaultRoundWindow = 16
)

// shipTimeout bounds dialing the merge coordinator at drain.
const shipTimeout = 30 * time.Second

// Config describes one node, in the shape of gaas.ServerConfig one level
// up: plain fields, one Start.
type Config struct {
	// MaxTotalRounds is the live-round budget the tenants share (<= 0
	// means service.DefaultMaxTotalRounds).
	MaxTotalRounds int
	// Tenants are registered in order on a fresh Registry, before any
	// durable state is recovered into it.
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
	// (Platform, TLS, deadlines and caps; Start fills in Hosts and Ingest).
	// The node owns the listener from Start on. A node without one is
	// driven through Registry directly.
	Listener net.Listener
	Edge     gaas.ServerConfig

	// NodeID is this node's ring identity (0 = standalone). A fleet node
	// serves fleet-forward for peer batches and signs its partial seals
	// with the key in <StateDir>/node.key, made on its first start (one
	// key per process without a StateDir). Coordinators pin that key on
	// first use, so only a node restarted from its state directory merges
	// again under the same NodeID. Hub, when non-nil, makes the node the
	// merge coordinator serving fleet-merge.
	NodeID uint32
	Hub    *service.MergeHub
	// Coordinator, when set, is the remote merge coordinator Drain ships
	// every round's partial seal to; ShardCount is how many partials
	// complete a merge — the size of the node set (0 means 1).
	Coordinator string
	ShardCount  uint32
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
	n := &Node{cfg: cfg, reg: service.NewRegistry(cfg.MaxTotalRounds)}
	if err := n.start(); err != nil {
		n.Kill()
		return nil, err
	}
	return n, nil
}

func (n *Node) start() error {
	for _, t := range n.cfg.Tenants {
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
	// lock-free on the frame path. An absent role is passed as a nil
	// interface — a typed nil hub would mount a fleet-merge that panics.
	var forward gaas.Ingestor
	if n.cfg.NodeID != 0 {
		forward = n.reg
	}
	var merger gaas.PartialMerger
	if n.cfg.Hub != nil {
		merger = n.cfg.Hub
	}
	n.server.Mux().HandleFleet(forward, merger)
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
// ring ID, the size of the node set, and its key. The measurement is
// zero: the node asserts it itself and a coordinator only pins what the
// first seal carried, so it never carried trust — the key is the node's
// whole identity.
func (n *Node) NodeSeal() service.NodeSeal {
	return service.NodeSeal{NodeID: n.cfg.NodeID, ShardCount: max(n.cfg.ShardCount, 1), Key: n.key}
}

// Registry is the node's tenant registry: the in-process ingest entry,
// and where a node with no durable state to recover may be handed more
// tenants after Start.
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
	Role  string
	Edge  gaas.EdgeStats
	Fleet gaas.FleetStats
	// Tenants, in name order, with every round sealed. RoutingRejected
	// counts what never reached a tenant (unroutable, unknown tenant).
	Tenants         []TenantReport
	RoutingRejected int
	// Shipped is one entry per partial seal offered to Config.Coordinator
	// (a lone error when it could not be reached); Merges is the state of
	// every merge Config.Hub still holds, by service and round, and Hub
	// (nil without one) its ledger over every merge it ever ran — a hub
	// retires completed merges, so the totals live there.
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
// admitted it.
type TenantReport struct {
	Name             string
	Rounds           []RoundReport
	ManagerRejected  int
	PipelineRejected int
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

// Drain stops the node gracefully and reports what it held. The returned
// error is an accept-loop, snapshot or close failure; the Report is
// filled as far as the drain got.
func (n *Node) Drain() (Report, error) {
	n.compactor.stop()
	rep := Report{Role: n.Role()}
	err := n.stopServing()
	for _, t := range n.reg.Tenants() {
		m := t.Manager()
		tr := TenantReport{Name: t.Name(), ManagerRejected: m.Rejected()}
		for _, round := range m.Rounds() {
			p, ok := m.Lookup(round)
			if !ok {
				continue
			}
			_ = p.Seal() // fix the cohort; a closed round is already final
			tr.PipelineRejected += p.Rejected()
			tr.Rounds = append(tr.Rounds, RoundReport{Round: round, Accepted: p.Count(), Sum: p.Sum()})
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	rep.RoutingRejected = n.reg.Rejected()
	// Ship before snapshotting: every cohort is fixed, so each export is
	// the round's final partial.
	if n.cfg.Coordinator != "" {
		rep.Shipped = n.shipPartialSeals()
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
		rep.Edge, rep.Fleet = n.server.Stats(), n.server.FleetStats()
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

// shipPartialSeals exports every tenant round's signed partial seal and
// ships it to the remote merge coordinator. Shipping is best-effort: a
// refused or unreachable coordinator is reported, not fatal — the durable
// snapshot still holds the partials for a retry.
func (n *Node) shipPartialSeals() []Shipment {
	ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
	defer cancel()
	client, err := gaas.DialContext(ctx, n.cfg.Coordinator, gaas.DialConfig{NoSession: true})
	if err != nil {
		return []Shipment{{Err: fmt.Errorf("coordinator %s unreachable: %w", n.cfg.Coordinator, err)}}
	}
	defer client.Close()
	seal := n.NodeSeal()
	var out []Shipment
	for _, t := range n.reg.Tenants() {
		for _, round := range t.Manager().Rounds() {
			var sh Shipment
			raw, err := t.Manager().ExportPartialSeal(round, seal)
			if err != nil {
				sh.Err = fmt.Errorf("partial seal %s round %d: %w", t.Name(), round, err)
			} else if sh.Merge, err = client.MergePartialSeal(raw); err != nil {
				sh.Err = fmt.Errorf("coordinator refused %s round %d: %w", t.Name(), round, err)
			} else if n.server != nil {
				n.server.NotePartialSent()
			}
			out = append(out, sh)
		}
	}
	return out
}
