package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"iter"
	"slices"
	"sort"

	"glimmers/internal/fixed"
	"glimmers/internal/xcrypto"
)

// This file is the durability boundary of the service layer: exportable
// state types, the journal Record every mutation becomes, the Journal
// interface that internal/durable implements to write a WAL, and Apply,
// the one way a record or an exported image gets back in. The state
// deliberately holds only what the operator can already observe from the
// running process — aggregate sums, dedup digests, counters, and ticket
// session keys (symmetric keys the server necessarily holds). Raw
// contributions, blinding masks, and device secrets are never part of it,
// so persisting it widens no leakage surface beyond the process memory it
// mirrors.

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

// RecordKind names a journal record. The values are fixed as WAL wire
// values: the kind byte every record's payload starts with.
type RecordKind uint8

const (
	// RoundCreated records a round entering its manager's map.
	RoundCreated RecordKind = iota + 1
	RoundSealed
	RoundClosed
	// RoundForgotten records a round leaving the manager's map (explicit
	// Forget or cap eviction); its state is no longer registry-reachable.
	RoundForgotten
	// BatchAccepted is the ingest watermark: the dedup digests accepted
	// from one frame — one digest for a contribution submitted on its own
	// — and their combined delta on the round's sum.
	BatchAccepted
	DropoutCorrected
	Rejected
	TicketGranted
	TicketEvicted
	// TenantBound opens a tenant's records in an image. Its one Digests
	// entry is the ConfigDigest the state was exported under; Apply refuses
	// a tenant whose configuration has another.
	TenantBound
)

// Barrier is the durability contract: a journal may persist a record
// asynchronously unless its kind is a barrier, whose Append must not return
// until the record and everything journaled before it are durable, because
// the caller publishes the state it describes the moment Append returns.
// The service layer appends barrier records off its internal locks so a
// journal can block in them; the rest may be appended under manager or shard
// bookkeeping locks and must return quickly.
//
//   - RoundSealed: the fleet plane ships partial seals and operators read
//     sealed sums the moment Seal returns, so the seal — and, because
//     records are staged in order, every accept before it — must be durable
//     first.
//   - RoundClosed: a closed round's sum has been consumed downstream.
//   - TicketGranted: the grant reply hands the device a session key; were
//     the record lost, every post-restart contribution under that ticket
//     would be refused and the device forced back through the asymmetric
//     exchange — the thundering herd durability exists to prevent.
//
// RoundCreated and RoundForgotten are appended under the round manager's
// lock, so they must stay async — and they can: a lost RoundCreated only
// loses the (empty) round it created, which recovery treats as never
// admitted.
func (k RecordKind) Barrier() bool {
	return k == RoundSealed || k == RoundClosed || k == TicketGranted
}

// Record is one durable mutation of a Registry, as a value: the WAL
// appends it, and Apply plays it back. Which fields a kind uses:
//
//   - every kind: Tenant (empty for a registry-level Rejected);
//   - every kind but the ticket ones and TenantBound: Round (0 for a
//     manager- or registry-level Rejected);
//   - BatchAccepted: Digests and Lanes (the delta on the round's sum);
//   - DropoutCorrected: Lanes (the recovered mask);
//   - Rejected: Level and Count;
//   - TicketGranted: Ticket; TicketEvicted: Ticket.ID;
//   - TenantBound: Digests, holding only the tenant's ConfigDigest.
type Record struct {
	Kind    RecordKind
	Tenant  string
	Round   uint64
	Digests [][32]byte
	Lanes   fixed.Vector
	Level   RejectLevel
	Count   int
	Ticket  TicketState
}

// Journal receives every durable mutation of a Registry as it happens.
// internal/durable implements it to append WAL records. Attach with
// SetJournal before the registry serves traffic.
//
// Append is called outside shard locks on the hot path and must not retain
// the record's slices (Digests, Lanes) past the call: encode synchronously.
// Which kinds must be durable before Append returns is RecordKind.Barrier.
type Journal interface {
	Append(Record)
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

// RoundState is one round's aggregate state: lifecycle phase, rejection
// counter, the (blinded) sum, and every dedup digest — all of them, so a
// restored round still refuses pre-snapshot duplicates. The round's
// accepted count is len(Digests).
type RoundState struct {
	Round    uint64
	Phase    uint8
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

// ExportState copies the registry's state: the struct form of Records,
// collected from the same round walk.
func (r *Registry) ExportState() RegistryState {
	st := RegistryState{Rejected: uint64(r.rejected.Load())}
	for _, t := range r.Tenants() { // name-sorted
		ts := t.exportHead()
		ts.Rounds = slices.Collect(t.manager.exportRounds())
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

// Records streams the registry as the journal records that rebuild it, in
// image order (tenantRecords). Each round is exported under its own locks
// only when the stream reaches it, so the stream holds one round's digests
// at a time and yields outside every service lock.
func (r *Registry) Records() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		for _, t := range r.Tenants() { // name-sorted
			if !tenantRecords(t.exportHead(), t.manager.exportRounds(), yield) {
				return
			}
		}
		yield(Record{Kind: Rejected, Level: LevelRegistry, Count: int(r.rejected.Load())})
	}
}

// exportHead is the tenant's state but its rounds.
func (t *Tenant) exportHead() TenantState {
	m := t.manager
	ts := TenantState{Name: t.cfg.Name, ConfigDigest: t.ConfigDigest(), Rejected: uint64(m.rejected.Load())}
	if m.cfg.tickets != nil {
		ts.Tickets = m.cfg.tickets.exportTickets()
	}
	return ts
}

// exportRounds is the one walk of the live rounds: ascending, each
// exported under its own locks when the walk reaches it.
func (m *RoundManager) exportRounds() iter.Seq[RoundState] {
	return func(yield func(RoundState) bool) {
		for _, round := range m.Rounds() {
			if p, ok := m.Lookup(round); ok && !yield(p.exportRound()) {
				return
			}
		}
	}
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
	slices.SortFunc(rs.Digests, func(a, b [32]byte) int { return bytes.Compare(a[:], b[:]) })
	return rs
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

// Records is the state as the journal records that rebuild it, in image
// order: each tenant's (tenantRecords), then the registry's refusals.
func (st RegistryState) Records() []Record {
	var recs []Record
	for _, ts := range st.Tenants {
		tenantRecords(ts, slices.Values(ts.Rounds), func(rec Record) bool {
			recs = append(recs, rec)
			return true
		})
	}
	return append(recs, Record{Kind: Rejected, Level: LevelRegistry, Count: int(st.Rejected)})
}

// tenantRecords is image order, stated once: it yields a TenantBound, then
// each of rounds as created, accepted, refused, then sealed or closed,
// then ts's tickets and its manager's refusals. ts.Rounds is not read. It
// reports whether yield asked for more.
func tenantRecords(ts TenantState, rounds iter.Seq[RoundState], yield func(Record) bool) bool {
	if !yield(Record{Kind: TenantBound, Tenant: ts.Name, Digests: [][32]byte{ts.ConfigDigest}}) {
		return false
	}
	for rs := range rounds {
		recs := []Record{
			{Kind: RoundCreated, Tenant: ts.Name, Round: rs.Round},
			{Kind: BatchAccepted, Tenant: ts.Name, Round: rs.Round, Digests: rs.Digests, Lanes: rs.Sum},
			{Kind: Rejected, Tenant: ts.Name, Round: rs.Round, Level: LevelRound, Count: int(rs.Rejected)},
		}
		switch rs.Phase {
		case RoundPhaseSealed:
			recs = append(recs, Record{Kind: RoundSealed, Tenant: ts.Name, Round: rs.Round})
		case RoundPhaseClosed:
			recs = append(recs, Record{Kind: RoundClosed, Tenant: ts.Name, Round: rs.Round})
		}
		for _, rec := range recs {
			if !yield(rec) {
				return false
			}
		}
	}
	for _, tk := range ts.Tickets {
		if !yield(Record{Kind: TicketGranted, Tenant: ts.Name, Ticket: tk}) {
			return false
		}
	}
	return yield(Record{Kind: Rejected, Tenant: ts.Name, Level: LevelManager, Count: int(ts.Rejected)})
}

// RestoreState applies st.Records() to a registry whose tenants have
// already been registered with matching configurations (same names,
// dimensions, ticket policies — each TenantBound enforces it). Call on a
// fresh registry before it serves traffic and before SetJournal, so the
// restore itself is not journaled back.
func (r *Registry) RestoreState(st RegistryState) error {
	for _, rec := range st.Records() {
		if err := r.Apply(rec); err != nil {
			return fmt.Errorf("service: restore: %w", err)
		}
	}
	return nil
}

// Apply plays one journal record back into the registry: the replay side
// of the WAL and of an image. It mutates state
// directly — nothing is refused, verified or journaled — so call it before
// SetJournal. Only RoundCreated brings a round into existence: a record for
// a round no longer registered (one a RoundForgotten has removed) is
// dropped and returns nil, exactly mirroring what registry-reachable state
// did live — an evicted round's late in-flight records changed only the
// detached pipeline, which the registry could no longer observe. A record
// naming an unknown tenant, a TenantBound of another configuration, a
// vector of another dimension than the tenant's, a grant for a tenant
// without a ticket table, or an unknown kind or level returns an error and
// applies nothing.
//
// Apply does not retain the record's slices (Digests, Lanes) past the
// call: digests are copied into dedup keys and lanes added into a sum, so
// a replay may decode every record into the same buffers.
func (r *Registry) Apply(rec Record) error {
	if rec.Kind == Rejected && rec.Level == LevelRegistry {
		r.rejected.Add(int64(rec.Count))
		return nil
	}
	t, ok := r.Tenant(rec.Tenant)
	if !ok {
		return fmt.Errorf("service: apply: %w: %q", ErrUnknownTenant, rec.Tenant)
	}
	m := t.manager
	switch rec.Kind {
	case TenantBound:
		if len(rec.Digests) != 1 || rec.Digests[0] != t.ConfigDigest() {
			return fmt.Errorf("service: apply: tenant %q config digest mismatch (state was exported under a different name/dim/ticket policy)", rec.Tenant)
		}
	case RoundCreated:
		m.Round(rec.Round)
	case RoundForgotten:
		m.Forget(rec.Round)
	case TicketGranted:
		if m.cfg.tickets == nil {
			return fmt.Errorf("service: apply: ticket grant for %q, which has no ticket table", rec.Tenant)
		}
		m.cfg.tickets.restoreTicket(rec.Ticket)
	case TicketEvicted:
		if m.cfg.tickets != nil {
			m.cfg.tickets.deleteTicket(rec.Ticket.ID)
		}
	case Rejected:
		switch rec.Level {
		case LevelManager:
			m.rejected.Add(int64(rec.Count))
		case LevelRound:
			if p, ok := m.Lookup(rec.Round); ok {
				p.rejected.Add(int64(rec.Count))
			}
		default:
			return fmt.Errorf("service: apply: unknown reject level %d", rec.Level)
		}
	case RoundSealed, RoundClosed, BatchAccepted, DropoutCorrected:
		p, ok := m.Lookup(rec.Round)
		if !ok {
			return nil
		}
		var err error
		switch rec.Kind {
		case RoundSealed:
			_ = p.Seal()
		case RoundClosed:
			p.Close()
		case BatchAccepted:
			err = p.restoreAccepted(rec.Digests, rec.Lanes)
		case DropoutCorrected:
			err = p.CorrectDropout(rec.Lanes)
		}
		if err != nil {
			return fmt.Errorf("service: apply: %s/%d: %w", rec.Tenant, rec.Round, err)
		}
	default:
		return fmt.Errorf("service: apply: unknown record kind %d", rec.Kind)
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
