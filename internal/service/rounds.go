package service

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
)

// DefaultMaxRounds bounds the live pipelines a RoundManager will create
// from ingest traffic. Round creation is already gated on a verifying
// signature (see preverify), so the cap is the second line of defense: it
// bounds what a compromised-but-vetted client naming arbitrary rounds can
// allocate. A real deployment has at most a handful of rounds in flight.
const DefaultMaxRounds = 64

// ErrTooManyRounds is returned by ingest when a contribution names a new
// round while the manager is already at its live-round limit.
var ErrTooManyRounds = errors.New("service: too many concurrent rounds")

// ErrRoundOutOfWindow is returned by ingest when a contribution names a
// new round too far from the rounds currently in flight.
var ErrRoundOutOfWindow = errors.New("service: round outside admission window")

// RoundManager owns the pipelines for concurrent aggregation rounds, keyed
// by round number. Transports (cmd/glimmerd, internal/gaas) hand it raw
// contributions in any order; each is routed to its round's pipeline by a
// cheap header peek, so a service can keep round N open for stragglers
// while round N+1 is already filling. All methods are safe for concurrent
// use.
type RoundManager struct {
	cfg PipelineConfig // template; Round is overridden per pipeline

	// MaxRounds caps how many live rounds ingest traffic may create
	// (<= 0 means DefaultMaxRounds). Set before serving traffic. The
	// explicit Round method is operator-driven and not subject to the cap.
	MaxRounds int

	// EvictAtCap makes ingest at the cap close and forget the least-filled
	// open round (fewest accepted contributions; highest round number on
	// ties) to admit a new verified one, instead of returning
	// ErrTooManyRounds. Evicting by fill means a vetted client spraying
	// fresh round numbers mostly evicts its own near-empty rounds, and a
	// round with a substantially filled cohort outlasts any spray — though
	// a client willing to spend valid contributions can still tie and
	// displace a round with an equally small count, so this bounds damage
	// rather than eliminating it. Suits unattended daemons (cmd/glimmerd);
	// services that consume aggregates should retire rounds explicitly via
	// Close/Forget instead.
	EvictAtCap bool

	// RoundWindow, when non-zero, restricts which new rounds ingest may
	// create: within RoundWindow of the highest established live round —
	// one with at least two accepted contributions. Anchoring only on
	// established rounds means a single stray far-off round (a stale
	// client or epoch-misconfigured bug, admitted while nothing was live)
	// cannot become the anchor and wedge all real traffic; until some
	// round establishes, admission falls back to the cap alone. This is a
	// guard against accidents, not a security boundary: the round number
	// is client-chosen and the anchor moves with the workload, so a
	// vetted client can still walk the window forward. Deployments that
	// need hard round authority must assign round numbers server-side.
	// Explicitly created rounds (Round) are not subject to it.
	RoundWindow uint64

	// budget is the cap this manager's live rounds count against: the
	// Registry's, shared with its other tenants, or — on a bare manager — a
	// private one with no cap. Fixed before serving traffic.
	budget *Budget

	// allow is the tenant's one allowlist: round admission, ticket grants
	// and every pipeline this manager creates consult this same value.
	allow *allowlist

	mu     sync.Mutex
	rounds map[uint64]*Pipeline

	// rejected counts manager-level refusals (unroutable bytes, failed
	// round admission); refusals on an existing round are counted by that
	// round's Pipeline.Rejected.
	rejected atomic.Int64

	// journal, when non-nil, receives durable mutations (see state.go).
	// Set via Registry.SetJournal before the manager serves traffic.
	journal Journal
}

// NewRoundManager creates a manager that spawns pipelines from cfg
// (cfg.Round is ignored; each round gets its own).
func NewRoundManager(cfg PipelineConfig) *RoundManager {
	m := &RoundManager{
		cfg:     cfg,
		allow:   newAllowlist(),
		rounds:  make(map[uint64]*Pipeline),
		journal: cfg.Journal,
	}
	m.budget = &Budget{max: math.MaxInt, members: []*RoundManager{m}}
	return m
}

// Vet allowlists a measurement for every current and future round.
func (m *RoundManager) Vet(meas tee.Measurement) { m.allow.vet(meas) }

// Rejected reports contributions refused before reaching any round's
// pipeline: undecodable headers, failed round-admission verification, and
// window/cap refusals.
func (m *RoundManager) Rejected() int { return int(m.rejected.Load()) }

// refuse books n manager-level refusals: the counter and the journal's
// Rejected record. ingestBatchInto books a frame's worth at once.
func (m *RoundManager) refuse(n int) {
	m.rejected.Add(int64(n))
	if j := m.journal; j != nil {
		j.Rejected(m.cfg.ServiceName, 0, LevelManager, n)
	}
}

// Round returns the pipeline for the given round, creating it if needed.
// Explicit creation is operator-driven: the round counts against the budget
// like any other, but no cap blocks it — the budget may run over until
// ingest-driven admission evicts it back under.
func (m *RoundManager) Round(round uint64) *Pipeline {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.roundLocked(round)
}

func (m *RoundManager) roundLocked(round uint64) *Pipeline {
	if p, ok := m.rounds[round]; ok {
		return p
	}
	cfg := m.cfg
	cfg.Round = round
	p := NewPipeline(cfg)
	p.allow, p.journal = m.allow, m.journal
	m.rounds[round] = p
	if j := m.journal; j != nil {
		j.RoundCreated(m.cfg.ServiceName, round)
	}
	return p
}

// live reports how many rounds the manager holds.
func (m *RoundManager) live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.rounds)
}

// Lookup returns the pipeline for a round without creating one.
func (m *RoundManager) Lookup(round uint64) (*Pipeline, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.rounds[round]
	return p, ok
}

// Rounds lists the rounds with live pipelines, ascending.
func (m *RoundManager) Rounds() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.rounds))
	for r := range m.rounds {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// preverify holds a contribution to its wire variant's acceptance rule —
// the one its pipeline would apply, at whatever round it names — without
// touching round state. It gates pipeline creation: only a contribution
// that would be accepted (duplicates aside) may bring a new round into
// existence, so unauthenticated bytes can never allocate rounds.
func (m *RoundManager) preverify(raw []byte) error {
	a := arenaPool.Get().(*ingestArena)
	defer a.release()
	if glimmer.PeekContributionTicketed(raw) {
		_, err := verifyTicketed(&m.cfg, nil, raw, &a.ticketed, &a.check)
		return err
	}
	_, err := verifySigned(&m.cfg, nil, m.allow, raw, &a.signed)
	return err
}

// GrantTicket runs the service side of the attested-session-ticket
// exchange against this manager's identity: the request's one signature
// is checked with the same key that verifies contributions, the
// requesting enclave's measurement against the same allowlist, and the
// derived session key lands in the manager's ticket table — after which
// every contribution of the session pays a constant-time MAC instead.
// Refusals here are control-plane errors returned to the caller; they are
// not counted as contribution rejections.
func (m *RoundManager) GrantTicket(raw []byte) ([]byte, error) {
	req, err := wire.DecodeTicketRequest(raw)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return m.grantTicket(req)
}

// grantTicket is the post-decode grant path shared with Registry routing.
func (m *RoundManager) grantTicket(req wire.TicketRequest) ([]byte, error) {
	if m.cfg.Tickets == nil {
		return nil, ErrTicketsDisabled
	}
	return m.cfg.Tickets.Grant(m.cfg.ServiceName, m.cfg.Verify, m.allow.admits, req)
}

// ingestRound creates a verified contribution's round: the one ingest-driven
// admission. It holds Budget.mu from its first check to the insert, so the
// budget's members admit one at a time and the occupancy an admission reads
// is the occupancy it acts on (operator verbs take only m.mu: charged, never
// blocked). The order of checks is part of the contract:
//
//  1. cheap refusals, under m.mu: an existing round needs no room, and an
//     out-of-window round is refused before the shared cap is looked at —
//     else a vetted client spraying out-of-window rounds could evict other
//     tenants' rounds without ever creating one of its own;
//  2. the shared cap, with m.mu released: the budget may evict from any
//     member, this one included (lock order Budget.mu → RoundManager.mu);
//  3. the tenant's own quota and the insert, under m.mu again with the cheap
//     checks repeated — step 2 may have evicted this tenant's window anchor.
//
// Evicted pipelines are closed only after every lock is released: Close
// drains the victim's in-flight batches, which must not stall other rounds.
func (m *RoundManager) ingestRound(round uint64) (*Pipeline, error) {
	b := m.budget
	b.mu.Lock()
	p, err := m.precheckAdmission(round)
	var victims []*Pipeline
	if p == nil && err == nil {
		if victims, err = b.makeRoomLocked(); err == nil {
			var own []*Pipeline
			p, own, err = m.admitRound(round)
			victims = append(victims, own...)
		}
	}
	b.mu.Unlock()
	for _, v := range victims {
		v.Close()
	}
	return p, err
}

// precheckAdmission runs the admission checks that need no room under any
// cap: an existing round is returned as-is, and an out-of-window round is
// refused. admitRound repeats both under the same lock.
func (m *RoundManager) precheckAdmission(round uint64) (*Pipeline, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.rounds[round]; ok {
		return p, nil
	}
	return nil, m.windowRefusesLocked(round)
}

// windowRefusesLocked applies the RoundWindow admission rule.
func (m *RoundManager) windowRefusesLocked(round uint64) error {
	if m.RoundWindow == 0 {
		return nil
	}
	anchor, anchored := uint64(0), false
	for r, p := range m.rounds {
		if p.Count() >= 2 && (!anchored || r > anchor) {
			anchor, anchored = r, true
		}
	}
	if !anchored {
		return nil
	}
	outsideAbove := round > anchor && round-anchor > m.RoundWindow
	outsideBelow := round < anchor && anchor-round > m.RoundWindow
	if outsideAbove || outsideBelow {
		return ErrRoundOutOfWindow
	}
	return nil
}

// admitRound is the tenant's own quota and the insert. Victims of the quota
// are returned even alongside an error.
func (m *RoundManager) admitRound(round uint64) (p *Pipeline, victims []*Pipeline, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.rounds[round]; ok {
		return p, nil, nil
	}
	if err := m.windowRefusesLocked(round); err != nil {
		return nil, nil, err
	}
	max := m.MaxRounds
	if max <= 0 {
		max = DefaultMaxRounds
	}
	for len(m.rounds) >= max {
		if !m.EvictAtCap {
			return nil, victims, ErrTooManyRounds
		}
		victim, found := m.evictLeastFilledLocked()
		if !found {
			return nil, victims, ErrTooManyRounds
		}
		victims = append(victims, victim)
	}
	return m.roundLocked(round), victims, nil
}

// evictLeastFilledLocked removes and returns the least-filled open round.
// Only open rounds are evictable: a sealed or closed pipeline stays
// registered so its anti-reopen guarantee (stragglers get
// ErrRoundSealed/ErrRoundClosed, never a fresh dedup set) holds. Among
// open rounds the least-filled loses; on a count tie the highest round
// number loses, so a client spraying ascending fresh rounds evicts its own
// spray before a round that opened earlier. The caller must Close the
// victim outside m.mu.
func (m *RoundManager) evictLeastFilledLocked() (*Pipeline, bool) {
	var victim uint64
	victimCount, found := 0, false
	for r, p := range m.rounds {
		if !p.open() {
			continue
		}
		c := p.Count()
		if !found || c < victimCount || (c == victimCount && r > victim) {
			victim, victimCount, found = r, c, true
		}
	}
	if !found {
		return nil, false
	}
	p := m.rounds[victim]
	delete(m.rounds, victim)
	if j := m.journal; j != nil {
		// The victim's own journal stays attached, so its Close (run by
		// the caller outside m.mu) still appends a RoundClosed record —
		// replay drops it, since this record already removed the round.
		j.RoundForgotten(m.cfg.ServiceName, victim)
	}
	return p, true
}

// dropLeastFilled is the shared budget's cross-tenant eviction hook: it
// removes and returns this manager's least-filled open round, or reports
// that nothing here is evictable. The caller Closes the victim outside every
// lock.
func (m *RoundManager) dropLeastFilled() (*Pipeline, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictLeastFilledLocked()
}

// Ingest routes one encoded contribution to its round's pipeline: a frame
// of one through ingestBatchInto (route.go), which has the admission rule.
func (m *RoundManager) Ingest(raw []byte) error {
	raws, errs := [1][]byte{raw}, [1]error{}
	m.ingestBatchInto(raws[:], errs[:])
	return errs[0]
}

// Seal seals one round's pipeline (see Pipeline.Seal). Sealing a round
// that was never opened creates and immediately seals it, so a late
// straggler cannot reopen it.
func (m *RoundManager) Seal(round uint64) error {
	return m.Round(round).Seal()
}

// Close closes one round's pipeline (see Pipeline.Close). The pipeline
// stays registered so stragglers for the round get ErrRoundClosed instead
// of silently reopening it; the returned pipeline still serves
// Sum/Mean/Count for whoever consumes the aggregate. Call Forget once the
// aggregate is consumed to release the round's dedup state.
func (m *RoundManager) Close(round uint64) *Pipeline {
	p := m.Round(round)
	p.Close()
	return p
}

// Forget drops a round's pipeline entirely, closing it first (so a caller
// still holding the pipeline gets ErrRoundClosed, never a late accept) and
// releasing its memory. A fresh verified contribution for a forgotten round
// would start a new pipeline, so only forget rounds the transport no longer
// routes. The round's share of the budget goes with it.
//
// RoundForgotten is journaled under m.mu, like an eviction's and like the
// RoundCreated of a contribution that re-creates the round, so the two land
// in the order they happened: the other way round, replay would drop the new
// round and every contribution acked to it.
func (m *RoundManager) Forget(round uint64) {
	m.mu.Lock()
	p, ok := m.rounds[round]
	if ok {
		delete(m.rounds, round)
		if j := m.journal; j != nil {
			j.RoundForgotten(m.cfg.ServiceName, round)
		}
	}
	m.mu.Unlock()
	if ok {
		p.Close()
	}
}
