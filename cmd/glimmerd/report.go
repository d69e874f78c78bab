package main

import (
	"fmt"
	"io"
	"runtime"

	"glimmers/internal/gaas"
	"glimmers/internal/node"
	"glimmers/internal/service"
)

// printer writes the daemon's status and drain lines.
type printer struct{ w io.Writer }

func (p printer) say(format string, args ...any) {
	fmt.Fprintf(p.w, "glimmerd: "+format+"\n", args...)
}

// status prints what a started node serves: recovery, the edge and its
// limits, the fleet role over its peers' ring, and the per-tenant
// measurements clients pin.
func (p printer) status(n *node.Node, cfg node.Config) {
	if cfg.StateDir != "" {
		rs := n.Recovered()
		p.say("recovered state dir %s: snapshot=%v generation=%d wal_records=%d truncated=%dB replay_errors=%d",
			cfg.StateDir, rs.SnapshotLoaded, rs.Generation, rs.Records, rs.TruncatedBytes, rs.ReplayErrors)
	}
	transport := "tcp"
	if cfg.Edge.TLS != nil {
		transport = "tcp+tls"
	}
	p.say("serving %d tenant(s) on %s over %s (budget %d rounds, frames verified on up to GOMAXPROCS=%d goroutines)",
		len(cfg.Tenants), cfg.Listener.Addr(), transport, service.DefaultMaxTotalRounds, runtime.GOMAXPROCS(0))
	p.say("edge limits: max-conns=%d per-ip=%d inflight-batches=%d read=%v write=%v idle=%v", cfg.Edge.MaxConns,
		cfg.Edge.MaxConnsPerIP, cfg.Edge.MaxInflightBatches, cfg.Edge.ReadTimeout, cfg.Edge.WriteTimeout, cfg.Edge.IdleTimeout)
	if n.Role() != "standalone" {
		key := "" // a coordinator without a NodeID signs nothing
		if k := n.NodeSeal().Key; k != nil {
			fp := k.Public().Fingerprint()
			key = fmt.Sprintf(" key=%x", fp[:8])
		}
		peers, coordinator := 0, cfg.Coordinator
		if cfg.Ring != nil {
			peers = cfg.Ring.Size()
		}
		if cfg.Hub != nil {
			coordinator = "self"
		}
		p.say("fleet: role=%s peers=%d coordinator=%q%s", n.Role(), peers, coordinator, key)
	}
	for _, t := range n.Registry().Tenants() {
		p.say("tenant %-28s dim=%-4d measurement %s (clients must pin this)", t.Name(), t.Config().Dim, t.Measurement())
	}
}

// writePins exports the tenants' measurements in the client's known-hosts
// format: devices provisioned from this file skip the TOFU leap of faith
// entirely.
func (p printer) writePins(path string, tenants []*service.Tenant) error {
	known, err := gaas.LoadKnownHosts(path)
	if err != nil {
		return err
	}
	for _, t := range tenants {
		if err := known.Pin(t.Name(), t.Measurement()); err != nil {
			return err
		}
	}
	p.say("wrote %d measurement pin(s) to %s", known.Len(), path)
	return nil
}

// report prints a drained node's Report: edge counters, per-tenant sealed
// sums and rejection counters, and — in fleet mode — shipped partials,
// the merges still held, the merge ledger and the fleet counters; then the
// WAL's.
func (p printer) report(rep node.Report, stateDir string) {
	p.say("edge counters: refused-max-conns=%d refused-per-ip=%d shed-batches=%d",
		rep.Edge.RefusedMaxConns, rep.Edge.RefusedPerIP, rep.Edge.ShedBatches)
	for _, t := range rep.Tenants {
		p.say("tenant %s", t.Name)
		for _, r := range t.Rounds {
			p.say("  round %-6d sealed: accepted=%-6d sum=%s", r.Round, r.Accepted, r.Sum.Digest())
		}
		p.say("  rejected total: %d (manager + pipelines)", t.ManagerRejected+t.PipelineRejected)
		p.say("  dropped unsealed: %d (accepted in rounds forgotten before their seal)", t.Dropped)
	}
	p.say("routing rejections (unroutable/unknown tenant): %d", rep.RoutingRejected)
	sent := 0 // partials the coordinator absorbed
	for _, sh := range rep.Shipped {
		if sh.Err != nil {
			p.say("%v", sh.Err)
			continue
		}
		sent++
		p.say("shipped partial %s round %-6d cohort=%d", sh.Merge.Service, sh.Merge.Round, sh.Merge.Count)
	}
	for _, m := range rep.Merges {
		p.say("merge %s round %-6d cohort=%d rejected=%d refused=%d", m.Service, m.Round, m.Count, m.Rejected, m.Refused)
	}
	var received, refused uint64
	if h := rep.Hub; h != nil {
		received, refused = h.SealsAbsorbed+h.SealsRefused, h.SealsRefused
		p.say("merge ledger: held completed=%d, gone retired=%d; seals absorbed=%d refused=%d; contributions merged=%d rejected=%d",
			h.Completed, h.Retired, h.SealsAbsorbed, h.SealsRefused, h.ContribsMerged, h.ContribsRejected)
	}
	if rep.Role != "standalone" {
		p.say("fleet counters: role=%s partials sent=%d received=%d refused=%d", rep.Role, sent, received, refused)
	}
	if stateDir != "" {
		ws := rep.WAL
		p.say("wal: records=%d writes=%d (%.1f rec/write) bytes=%d syncs=%d barrier_waits=%d staged_peak=%dB wal_bytes=%d image_bytes=%d", ws.Records,
			ws.Writes, float64(ws.Records)/float64(max(ws.Writes, 1)), ws.BytesWritten, ws.Syncs, ws.BarrierWaits, ws.StagedPeak,
			ws.WALBytes, ws.ImageBytes)
		if rep.Snapshotted {
			p.say("state snapshotted to %s", stateDir)
		}
	}
}
