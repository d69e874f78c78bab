package service

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"

	"glimmers/internal/fixed"
	"glimmers/internal/xcrypto"
)

// This file is the durability boundary of the service layer: exportable
// state types, export/restore hooks on Registry/RoundManager/Pipeline/
// TicketTable, and the Journal interface that internal/durable implements
// to write a WAL. The state deliberately holds only what the operator can
// already observe from the running process — aggregate sums, dedup
// digests, counters, and ticket session keys (symmetric keys the server
// necessarily holds). Raw contributions, blinding masks, and device
// secrets are never part of it, so persisting it widens no leakage
// surface beyond the process memory it mirrors.

// RejectLevel says which layer refused a submission, so replay can restore
// the rejection counter that was actually bumped.
type RejectLevel uint8

const (
	// LevelRegistry counts unroutable bytes and unknown tenants
	// (Registry.Rejected).
	LevelRegistry RejectLevel = iota
	// LevelManager counts tenant-level refusals before any round's
	// pipeline (RoundManager.Rejected).
	LevelManager
	// LevelRound counts refusals on an existing round
	// (Pipeline.Rejected).
	LevelRound
)

// Journal receives every durable mutation of a Registry as it happens.
// internal/durable implements it to append WAL records; ReplayJournal
// implements it to apply those records back. Attach with SetJournal
// before the registry serves traffic.
//
// Calls are made outside shard locks on the hot path and must not retain
// slice arguments (digests, vectors) past the call: encode synchronously.
//
// Durability contract: implementations may persist asynchronously, but
// RoundSealed, RoundClosed, and TicketGranted are barriers — they must
// not return until the record and everything journaled before it are
// durable, because the caller publishes the state they describe the
// moment the journal call returns (a sealed sum to operators and the
// fleet plane, a session key to the device). The service layer keeps
// those three hooks off its internal locks so an implementation can
// block in them; the remaining hooks may be called under manager or
// shard bookkeeping locks and must return quickly (RoundCreated and
// RoundForgotten, in particular, fire under the round manager's lock).
type Journal interface {
	RoundCreated(tenant string, round uint64)
	RoundSealed(tenant string, round uint64)
	RoundClosed(tenant string, round uint64)
	// RoundForgotten records a round leaving the manager's map (explicit
	// Forget or cap eviction); its state is no longer registry-reachable.
	RoundForgotten(tenant string, round uint64)
	// BatchAccepted is the ingest watermark: the dedup digests accepted
	// from one frame — one digest for a contribution submitted on its own
	// — and their combined delta on the round's sum.
	BatchAccepted(tenant string, round uint64, digests [][32]byte, delta fixed.Vector)
	DropoutCorrected(tenant string, round uint64, mask fixed.Vector)
	Rejected(tenant string, round uint64, level RejectLevel, n int)
	TicketGranted(tenant string, tk TicketState)
	TicketEvicted(tenant string, id uint64)
}

// TicketState is one ticket-table entry in exportable form. The session
// key is symmetric material the server holds anyway; persisting it is
// what lets restored sessions keep contributing without re-running the
// asymmetric grant exchange.
type TicketState struct {
	ID          uint64
	Key         xcrypto.SessionKey
	RoundFirst  uint64
	RoundLast   uint64
	ExpiresUnix int64
}

// Round phases in exportable form (the unexported lifecycle constants,
// fixed as wire values).
const (
	RoundPhaseOpen   uint8 = 0
	RoundPhaseSealed uint8 = 1
	RoundPhaseClosed uint8 = 2
)

// RoundState is one round's aggregate state: lifecycle phase, accepted
// count, rejection counter, the (blinded) sum, and every dedup digest —
// all of them, so a restored round still refuses pre-snapshot duplicates.
// Count is len(Digests): export writes it for readers of the state, the
// snapshot decoder refuses a disagreement, and restore counts the digests.
type RoundState struct {
	Round    uint64
	Phase    uint8
	Count    uint64
	Rejected uint64
	Sum      fixed.Vector
	Digests  [][32]byte // sorted lexicographically for determinism
}

// TenantState is one tenant's exportable state. ConfigDigest binds the
// state to the tenant configuration that produced it (name, dimension,
// ticket policy presence — not keys, which glimmerd regenerates per
// process); restore refuses a mismatch.
type TenantState struct {
	Name         string
	ConfigDigest [32]byte
	Rejected     uint64
	Rounds       []RoundState  // sorted by round
	Tickets      []TicketState // sorted by ID
}

// RegistryState is the full exportable state of a Registry. Export is
// deterministic: tenants by name, rounds ascending, digests and tickets
// sorted — so export → encode → restore → export round-trips
// byte-identically on a quiesced registry.
type RegistryState struct {
	Rejected uint64
	Tenants  []TenantState
}

// ConfigDigest fingerprints the identity-critical part of the tenant
// configuration: service name, dimension, and whether tickets are
// enabled. Verify keys are deliberately excluded — glimmerd regenerates
// its service identity on every start, and durable state must survive
// that; the ticket session keys in the state are what keep pre-restart
// sessions valid across the rotation.
func (t *Tenant) ConfigDigest() [32]byte {
	var buf [8]byte
	h := sha256.New()
	h.Write([]byte("glimmers/tenant-config/v1"))
	h.Write([]byte(t.cfg.Name))
	binary.BigEndian.PutUint64(buf[:], uint64(t.cfg.Dim))
	h.Write(buf[:])
	if t.cfg.TicketPolicy != nil {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// SetJournal attaches a journal to the registry, every tenant manager,
// ticket table, and live pipeline. Must be called before the registry
// serves traffic (the fields are read without synchronization on the hot
// path); internal/durable calls it at the end of Recover.
func (r *Registry) SetJournal(j Journal) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.journal = j
	for _, t := range r.tenants {
		m := t.manager
		m.mu.Lock()
		m.journal = j
		for _, p := range m.rounds {
			p.setJournal(j)
		}
		m.mu.Unlock()
		if m.cfg.tickets != nil {
			m.cfg.tickets.setJournal(t.cfg.Name, j)
		}
	}
}

// ExportState snapshots the registry. Serialization happens in the
// caller (internal/durable) outside every service lock; this walk takes
// each shard/table lock only long enough to copy. For a consistent image
// the caller must have quiesced ingest — a mutation concurrent with the
// export would land in both the snapshot and the next WAL generation.
func (r *Registry) ExportState() RegistryState {
	st := RegistryState{Rejected: uint64(r.rejected.Load())}
	for _, t := range r.Tenants() { // name-sorted
		st.Tenants = append(st.Tenants, t.exportState())
	}
	return st
}

func (t *Tenant) exportState() TenantState {
	m := t.manager
	ts := TenantState{
		Name:         t.cfg.Name,
		ConfigDigest: t.ConfigDigest(),
		Rejected:     uint64(m.rejected.Load()),
	}
	for _, round := range m.Rounds() { // ascending
		if p, ok := m.Lookup(round); ok {
			ts.Rounds = append(ts.Rounds, p.exportRound())
		}
	}
	if m.cfg.tickets != nil {
		ts.Tickets = m.cfg.tickets.exportTickets()
	}
	return ts
}

func (p *Pipeline) exportRound() RoundState {
	p.stateMu.RLock()
	phase := uint8(p.state)
	p.stateMu.RUnlock()
	rs := RoundState{
		Round:    p.round,
		Phase:    phase,
		Rejected: uint64(p.rejected.Load()),
		Sum:      fixed.NewVector(p.cfg.Dim),
	}
	for _, sh := range p.shards {
		sh.mu.Lock()
		rs.Sum.AddInPlace(sh.sum)
		for d := range sh.seen {
			rs.Digests = append(rs.Digests, d)
		}
		sh.mu.Unlock()
	}
	rs.Count = uint64(len(rs.Digests))
	sortDigests(rs.Digests)
	return rs
}

func sortDigests(ds [][32]byte) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := &ds[i], &ds[j]
		for k := 0; k < 32; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

func (t *TicketTable) exportTickets() []TicketState {
	t.mu.RLock()
	out := make([]TicketState, 0, len(t.entries))
	for id, e := range t.entries {
		out = append(out, TicketState{
			ID: id, Key: e.key,
			RoundFirst: e.roundFirst, RoundLast: e.roundLast,
			ExpiresUnix: e.expiresUnix,
		})
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RestoreState loads a previously exported state into a registry whose
// tenants have already been registered with matching configurations
// (same names, dimensions, ticket policies — ConfigDigest enforces it).
// Call on a fresh registry before it serves traffic and before
// SetJournal, so the restore itself is not journaled back.
func (r *Registry) RestoreState(st RegistryState) error {
	for _, ts := range st.Tenants {
		t, ok := r.Tenant(ts.Name)
		if !ok {
			return fmt.Errorf("service: restore: %w: %q", ErrUnknownTenant, ts.Name)
		}
		if t.ConfigDigest() != ts.ConfigDigest {
			return fmt.Errorf("service: restore: tenant %q config digest mismatch (state was exported under a different name/dim/ticket policy)", ts.Name)
		}
		if err := t.manager.restoreState(ts); err != nil {
			return fmt.Errorf("service: restore: tenant %q: %w", ts.Name, err)
		}
	}
	r.rejected.Store(int64(st.Rejected))
	return nil
}

func (m *RoundManager) restoreState(ts TenantState) error {
	m.rejected.Store(int64(ts.Rejected))
	for _, rs := range ts.Rounds {
		if err := m.Round(rs.Round).restoreRound(rs); err != nil {
			return fmt.Errorf("round %d: %w", rs.Round, err)
		}
	}
	if m.cfg.tickets != nil {
		for _, tk := range ts.Tickets {
			m.cfg.tickets.restoreTicket(tk)
		}
	}
	return nil
}

func (p *Pipeline) restoreRound(rs RoundState) error {
	if err := p.restoreAccepted(rs.Digests, rs.Sum); err != nil {
		return err
	}
	p.rejected.Store(int64(rs.Rejected))
	switch rs.Phase {
	case RoundPhaseSealed:
		_ = p.Seal()
	case RoundPhaseClosed:
		p.Close()
	}
	return nil
}

// restoreAccepted re-applies accepted contributions from durable state:
// digests are routed to their dedup shards exactly as live ingest routes
// them (so restored duplicates are still refused, and each fresh digest is
// one accepted contribution, as live), and the combined delta lands in shard
// 0 — per-shard placement of sums is irrelevant, only their total is
// observable. A delta of the wrong dimension applies nothing: counting its
// digests without their sum would make the round wrong rather than absent.
func (p *Pipeline) restoreAccepted(digests [][32]byte, delta fixed.Vector) error {
	if len(delta) != p.cfg.Dim {
		return ErrWrongDim
	}
	for _, d := range digests {
		sh := p.shards[binary.BigEndian.Uint64(d[:8])&p.shardMask]
		sh.mu.Lock()
		sh.seen[d] = true
		sh.mu.Unlock()
	}
	sh := p.shards[0]
	sh.mu.Lock()
	sh.sum.AddInPlace(delta)
	sh.mu.Unlock()
	return nil
}

// restoreTicket installs an entry verbatim: no eviction policy, no
// journaling. WAL evict records — not a re-run of the bound logic —
// remove entries during replay, so replay is exact rather than
// clock-dependent.
func (t *TicketTable) restoreTicket(tk TicketState) {
	t.mu.Lock()
	t.putLocked(tk.ID, ticketEntry{
		key:         tk.Key,
		roundFirst:  tk.RoundFirst,
		roundLast:   tk.RoundLast,
		expiresUnix: tk.ExpiresUnix,
	})
	t.mu.Unlock()
}

func (t *TicketTable) deleteTicket(id uint64) {
	t.mu.Lock()
	delete(t.entries, id)
	t.mu.Unlock()
}

func (t *TicketTable) setJournal(tenant string, j Journal) {
	t.mu.Lock()
	t.tenant, t.journal = tenant, j
	t.mu.Unlock()
}

// ReplayJournal returns a Journal whose events mutate the registry
// directly: the replay side of the WAL. internal/durable feeds decoded
// records through it before attaching the real journal. onErr (may be
// nil) receives non-fatal replay mismatches — records naming tenants the
// registry no longer has, and vectors of another dimension than the
// tenant's.
func (r *Registry) ReplayJournal(onErr func(error)) Journal {
	if onErr == nil {
		onErr = func(error) {}
	}
	return &replayJournal{reg: r, onErr: onErr}
}

type replayJournal struct {
	reg   *Registry
	onErr func(error)
}

func (rj *replayJournal) manager(tenant string) *RoundManager {
	t, ok := rj.reg.Tenant(tenant)
	if !ok {
		rj.onErr(fmt.Errorf("service: replay: %w: %q", ErrUnknownTenant, tenant))
		return nil
	}
	return t.manager
}

// round resolves an existing round for replay. Only RoundCreated brings a
// round into existence: every other record applies to a round that is
// still registered and is dropped once a RoundForgotten record has
// removed it — exactly mirroring what registry-reachable state did live
// (an evicted round's late in-flight records changed only the detached
// pipeline, which the registry could no longer observe).
func (rj *replayJournal) round(tenant string, round uint64) *Pipeline {
	m := rj.manager(tenant)
	if m == nil {
		return nil
	}
	p, ok := m.Lookup(round)
	if !ok {
		return nil
	}
	return p
}

func (rj *replayJournal) RoundCreated(tenant string, round uint64) {
	if m := rj.manager(tenant); m != nil {
		m.Round(round)
	}
}

func (rj *replayJournal) RoundSealed(tenant string, round uint64) {
	if p := rj.round(tenant, round); p != nil {
		_ = p.Seal()
	}
}

func (rj *replayJournal) RoundClosed(tenant string, round uint64) {
	if p := rj.round(tenant, round); p != nil {
		p.Close()
	}
}

func (rj *replayJournal) RoundForgotten(tenant string, round uint64) {
	if m := rj.manager(tenant); m != nil {
		m.Forget(round)
	}
}

func (rj *replayJournal) BatchAccepted(tenant string, round uint64, digests [][32]byte, delta fixed.Vector) {
	if p := rj.round(tenant, round); p != nil {
		if err := p.restoreAccepted(digests, delta); err != nil {
			rj.onErr(fmt.Errorf("service: replay: accepted batch on %s/%d: %w", tenant, round, err))
		}
	}
}

func (rj *replayJournal) DropoutCorrected(tenant string, round uint64, mask fixed.Vector) {
	if p := rj.round(tenant, round); p != nil {
		if err := p.CorrectDropout(mask); err != nil {
			rj.onErr(fmt.Errorf("service: replay: dropout correction on %s/%d: %w", tenant, round, err))
		}
	}
}

// Rejected restores a counter that a refuse function bumped live; nothing
// is refused here, so nothing goes through them (or back into a journal).
func (rj *replayJournal) Rejected(tenant string, round uint64, level RejectLevel, n int) {
	switch level {
	case LevelRegistry:
		rj.reg.rejected.Add(int64(n))
	case LevelManager:
		if m := rj.manager(tenant); m != nil {
			m.rejected.Add(int64(n))
		}
	case LevelRound:
		if p := rj.round(tenant, round); p != nil {
			p.rejected.Add(int64(n))
		}
	default:
		rj.onErr(fmt.Errorf("service: replay: unknown reject level %d", level))
	}
}

func (rj *replayJournal) TicketGranted(tenant string, tk TicketState) {
	m := rj.manager(tenant)
	if m == nil {
		return
	}
	if m.cfg.tickets == nil {
		rj.onErr(fmt.Errorf("service: replay: ticket grant for %q, which has no ticket table", tenant))
		return
	}
	m.cfg.tickets.restoreTicket(tk)
}

func (rj *replayJournal) TicketEvicted(tenant string, id uint64) {
	m := rj.manager(tenant)
	if m == nil {
		return
	}
	if m.cfg.tickets != nil {
		m.cfg.tickets.deleteTicket(id)
	}
}
