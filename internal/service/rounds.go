package service

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
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

// RoundManager owns one tenant's pipelines for concurrent aggregation
// rounds, keyed by round number; Registry.AddTenant builds it. The registry
// routes each contribution to its round by a cheap header peek, so a
// service can keep round N open for stragglers while round N+1 is already
// filling. All methods are safe for concurrent use.
type RoundManager struct {
	// cfg is the tenant's round template and admission quota (MaxRounds,
	// EvictAtCap, RoundWindow), shared with every round it creates.
	cfg *roundConfig

	// budget is the Registry's cap this manager's live rounds count
	// against, shared with its other tenants.
	budget *Budget

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

// Vet allowlists a measurement for every current and future round.
func (m *RoundManager) Vet(meas tee.Measurement) { m.cfg.allow.vet(meas) }

// Rejected reports contributions refused before reaching any round's
// pipeline: undecodable headers, failed round-admission verification, and
// window/cap refusals.
func (m *RoundManager) Rejected() int { return int(m.rejected.Load()) }

// refuse books n manager-level refusals: the counter and the journal's
// Rejected record. The router books a frame's worth at once.
func (m *RoundManager) refuse(n int) {
	m.rejected.Add(int64(n))
	if j := m.journal; j != nil {
		j.Append(Record{Kind: Rejected, Tenant: m.cfg.Name, Level: LevelManager, Count: n})
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
	p := newPipeline(m.cfg, round)
	p.journal = m.journal
	m.rounds[round] = p
	if j := m.journal; j != nil {
		j.Append(Record{Kind: RoundCreated, Tenant: m.cfg.Name, Round: round})
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
		_, err := verifyTicketed(m.cfg, nil, raw, &a.ticketed, &a.check)
		return err
	}
	_, err := verifySigned(m.cfg, nil, raw, &a.signed)
	return err
}

// admit returns the pipeline a frame's group of items for round rides in:
// the live one, or one created for the first of the items that verifies
// (preverify), which then verifies once more inside the pipeline — a double
// cost only each round's first contribution pays. Items failing the gate,
// or every remaining item when admission refuses the round, get their
// error slot set and count toward refused; rest is what rides.
func (m *RoundManager) admit(round uint64, raws [][]byte, errs []error, idx []int) (p *Pipeline, rest []int, refused int) {
	if p, ok := m.Lookup(round); ok {
		return p, idx, 0
	}
	for len(idx) > 0 {
		if err := m.preverify(raws[idx[0]]); err != nil {
			errs[idx[0]] = err
			refused++
			idx = idx[1:]
			continue
		}
		var err error
		if p, err = m.ingestRound(round); err != nil {
			for _, k := range idx {
				errs[k] = err
			}
			return nil, nil, refused + len(idx)
		}
		return p, idx, refused
	}
	return nil, nil, refused
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
	if m.cfg.RoundWindow == 0 {
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
	outsideAbove := round > anchor && round-anchor > m.cfg.RoundWindow
	outsideBelow := round < anchor && anchor-round > m.cfg.RoundWindow
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
	for len(m.rounds) >= m.cfg.MaxRounds {
		if !m.cfg.EvictAtCap {
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
	m.forgetLocked(victim, p)
	return p, true
}

// forgetLocked removes a round and detaches its pipeline from the journal
// before journaling RoundForgotten, all under m.mu. The victim's Close, run
// by the caller outside m.mu, and whatever its in-flight frames still book
// then reach no journal: a contribution may already have re-created the
// round by then, and replay would apply those records to the successor.
// What the detached pipeline accepted late is lost to replay as it is to
// the live registry, which can no longer reach it either.
func (m *RoundManager) forgetLocked(round uint64, p *Pipeline) {
	delete(m.rounds, round)
	p.setJournal(nil)
	if j := m.journal; j != nil {
		j.Append(Record{Kind: RoundForgotten, Tenant: m.cfg.Name, Round: round})
	}
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
		m.forgetLocked(round, p)
	}
	m.mu.Unlock()
	if ok {
		p.Close()
	}
}
