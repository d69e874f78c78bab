package service

import (
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// Ingest policy errors.
var (
	ErrBadSignature   = errors.New("service: contribution signature invalid")
	ErrWrongRound     = errors.New("service: contribution for a different round")
	ErrWrongService   = errors.New("service: contribution for a different service")
	ErrWrongDim       = errors.New("service: contribution has wrong dimension")
	ErrUnknownGlimmer = errors.New("service: contribution from unvetted glimmer")
	ErrDuplicate      = errors.New("service: duplicate contribution")
)

// Round lifecycle errors.
var (
	// ErrRoundSealed is returned by ingest once Seal has been called: the
	// cohort is fixed.
	ErrRoundSealed = errors.New("service: round is sealed")
	// ErrRoundClosed is returned once Close has been called; after close the
	// aggregate is immutable (no further ingest or dropout correction).
	ErrRoundClosed = errors.New("service: round is closed")
)

// Round lifecycle states: open (ingesting) → sealed (cohort fixed, dropout
// correction still allowed) → closed (aggregate immutable).
const (
	roundOpen = iota
	roundSealed
	roundClosed
)

// roundConfig is what every round of one tenant is built from and held to:
// the tenant's TenantConfig as AddTenant resolved it (Workers and MaxRounds
// defaulted), its ticket table and its allowlist. The tenant's manager and
// every round it creates share the one value.
type roundConfig struct {
	TenantConfig
	tickets *TicketTable // nil refuses ticketed traffic with ErrUnknownTicket
	allow   *allowlist
	// dropped tallies the contributions of rounds forgotten before their
	// seal was booked (Pipeline.retire adds them): acked, then never part
	// of a sealed aggregate. RoundManager.Dropped reads it.
	dropped atomic.Int64
}

// pipeShard is one lock's worth of aggregation state. Contributions are
// routed by digest, so under concurrent ingest the shards fill evenly and
// two goroutines rarely contend on the same lock. The dedup set is also the
// count: a shard has accepted len(seen) contributions. A round takes its
// shards' sets from seenPool and hands them back when it is forgotten
// (retire), so a set grown by one round serves a later one.
type pipeShard struct {
	mu   sync.Mutex
	seen map[[32]byte]bool // nil once released
	sum  fixed.Vector
}

// seenPool holds cleared dedup sets of forgotten rounds, at whatever size
// their rounds grew them to; the runtime decides how many it keeps.
var seenPool = sync.Pool{New: func() any { return make(map[[32]byte]bool) }}

// Pipeline is the concurrent ingest path for one aggregation round, built by
// its tenant's RoundManager: decode and signature checks run on whatever
// goroutine delivers the contribution (many callers, or the goroutines one
// frame fans out to), and accumulation is sharded by contribution digest so
// the only serialization is a brief per-shard lock. A Pipeline is locks and
// data: it owns no goroutine, so a round that is sealed, forgotten or simply
// dropped leaves nothing running. All methods are safe for concurrent use.
//
// A round moves through an explicit lifecycle: while open it ingests; Seal
// fixes the cohort and drains in-flight work; Close makes the aggregate
// immutable (CorrectDropout is valid only before close, mirroring the
// blind-recovery window of the dropout protocol). In every state the round's
// aggregate is its shards: the sum is the sum of theirs, the count the size
// of their dedup sets, and nothing keeps a second copy of either.
type Pipeline struct {
	cfg       *roundConfig
	round     uint64
	shardMask uint64
	shards    []*pipeShard

	// stateMu orders lifecycle transitions against intake: intake holds the
	// read side while registering with pending, transitions hold the write
	// side, so no contribution can slip in after a state change. It guards
	// journal the same way: every record is written under the read side.
	stateMu sync.RWMutex
	state   int
	pending sync.WaitGroup
	// forgotten is set, under the write side, as the round leaves its
	// manager (detach); sealed once a Seal has drained the round and
	// journaled its seal, under the read side, which excludes detach. A
	// round forgotten before it was sealed is a drop: retire tallies it.
	forgotten bool
	sealed    atomic.Bool

	rejected atomic.Int64

	// journal, when non-nil, receives every durable mutation (see
	// state.go). Read under stateMu's read side, through the record it is
	// read for, and swapped by setJournal under the write side: a record
	// the pipeline journals lands wholly before a swap or not at all.
	journal Journal
}

// allowlist is the set of vetted Glimmer measurements one tenant admits,
// shared by its RoundManager and every round. Safe for concurrent use.
type allowlist struct {
	mu  sync.RWMutex
	set map[tee.Measurement]bool
}

func newAllowlist() *allowlist {
	return &allowlist{set: make(map[tee.Measurement]bool)}
}

func (a *allowlist) vet(m tee.Measurement) {
	a.mu.Lock()
	a.set[m] = true
	a.mu.Unlock()
}

// admits is the single admission rule: an empty allowlist admits
// everything, as the serial aggregator did.
func (a *allowlist) admits(m tee.Measurement) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.set) == 0 || a.set[m]
}

// newPipeline creates one round of the tenant cfg describes, with 2×Workers
// shards rounded up to a power of two, so a digest's shard is a mask.
func newPipeline(cfg *roundConfig, round uint64) *Pipeline {
	n := 2 << bits.Len(uint(cfg.Workers-1))
	p := &Pipeline{
		cfg:       cfg,
		round:     round,
		shardMask: uint64(n - 1),
		shards:    make([]*pipeShard, n),
	}
	for i := range p.shards {
		p.shards[i] = &pipeShard{
			seen: seenPool.Get().(map[[32]byte]bool),
			sum:  fixed.NewVector(cfg.Dim),
		}
	}
	return p
}

// detach takes the round out of service as it leaves its manager, under
// the manager's lock: intake stops, the journal is detached (see
// RoundManager.forgetLocked), and a Seal that has not yet booked the cohort
// returns ErrRoundClosed. With onlyOpen a round that is no longer open is
// left alone and detach reports false, so an eviction never takes a round
// a concurrent Seal has claimed.
func (p *Pipeline) detach(onlyOpen bool) bool {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	if onlyOpen && p.state != roundOpen {
		return false
	}
	p.state, p.forgotten, p.journal = roundClosed, true, nil
	return true
}

// retire finishes a round that detach took out of service — RoundManager.
// Forget and the eviction of a round call it — once every lock is released:
// it waits for the batches still in flight, adds the count of a round that
// was never sealed to its tenant's dropped tally, then hands its dedup sets
// back to seenPool, cleared, and zeroes its sum. Every reader of a shard's
// set holds the shard lock retire takes, and snapshot holds the write side
// of stateMu too, so a caller still holding the pipeline reads an empty
// closed round — Count 0, a zero Sum — and never a digest of the round that
// takes a set next.
func (p *Pipeline) retire() {
	p.pending.Wait()
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	dropped := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		seen := sh.seen
		dropped += len(seen)
		sh.seen = nil
		clear(sh.sum)
		sh.mu.Unlock()
		clear(seen)
		seenPool.Put(seen)
	}
	if !p.sealed.Load() {
		p.cfg.dropped.Add(int64(dropped))
	}
}

// enter registers n in-flight contributions, failing if the round has
// left the open state. Lifecycle refusals count toward Rejected like any
// other refused submission.
func (p *Pipeline) enter(n int) error {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	switch p.state {
	case roundSealed:
		p.refuse(n)
		return ErrRoundSealed
	case roundClosed:
		p.refuse(n)
		return ErrRoundClosed
	}
	p.pending.Add(n)
	return nil
}

// open reports whether the round is still ingesting.
func (p *Pipeline) open() bool {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	return p.state == roundOpen
}

// verifySigned is the acceptance rule of the signed wire variant, written
// once for round ingest (processBatch) and round admission
// (RoundManager.preverify): zero-copy decode into v, service identity, round
// (when wantRound is non-nil — the cheap checks come before the expensive one
// so stale traffic is cheap to reject), dimension, measurement allowlist,
// signature. Dedup is the caller's business.
//
// The returned digest is the contribution's dedup identity, SHA-256 of the
// raw bytes. v aliases raw. The check copies nothing and allocates nothing
// outside the signature verifier's internals.
func verifySigned(cfg *roundConfig, wantRound *uint64, raw []byte,
	v *glimmer.SignedView) ([32]byte, error) {
	var digest [32]byte
	if err := v.Decode(raw); err != nil {
		return digest, fmt.Errorf("service: %w", err)
	}
	if string(v.ServiceName) != cfg.Name {
		return digest, ErrWrongService
	}
	if wantRound != nil && v.Round != *wantRound {
		return digest, ErrWrongRound
	}
	if v.Lanes() != cfg.Dim {
		return digest, ErrWrongDim
	}
	if !cfg.allow.admits(v.Measurement) {
		return digest, ErrUnknownGlimmer
	}
	if cfg.Verify != nil {
		if head, tail := v.PreimageParts(); !cfg.Verify.VerifyParts(head, tail, v.Signature) {
			return digest, ErrBadSignature
		}
	}
	return sha256.Sum256(raw), nil
}

// ticketCheck is what the ticketed rule carries from one item of a frame to
// the next: a one-entry memo of the last ticket resolved, so a run of items
// under one ticket — the usual whole frame — reads the table once; the
// table clock, read once at the first ticket resolved, so a frame of many
// tickets reads it once too; and the buffer each item's preimage is joined
// in. The memo and the clock reading must not outlive the frame
// (ingestArena.release forgets them): between frames the table may expire
// or evict the ticket it remembers, time moves on, and a first check's
// AEAD is the frame's alone. The buffer outlives them with the pooled
// arena.
type ticketCheck struct {
	memoized  bool
	id, round uint64
	aead      cipher.AEAD
	err       error

	clocked bool
	now     int64

	preimage []byte
}

// verifyTicketed is the acceptance rule of the ticketed wire variant — the
// service's whole trust decision for a MAC'd contribution, written once for
// round ingest (processBatch) and round admission (preverify): zero-copy
// decode into v, service identity, round (when wantRound is non-nil),
// dimension, tickets enabled, ticket resolution (table, expiry, round
// window), session MAC. The asymmetric verify and the measurement allowlist
// were paid once, at grant time; the MAC covers the service name and round,
// so a contribution respelled for another tenant or round never verifies,
// and the table's window and expiry bound what a captured ticket can replay.
//
// The returned digest is the contribution's dedup identity: the verified
// MAC itself, nonce then tag, zero-padded to 32 bytes. The nonce is drawn
// afresh per seal, so two honest contributions share it only by a 96-bit
// birthday collision, and a message whose nonce or tag was altered never
// verifies: only a byte-identical resubmission collides, as on the signed
// path, and the fast path skips a full-message hash. v aliases raw. Zero
// heap allocations once the ticket's AEAD is cached (ticketEntry).
func verifyTicketed(cfg *roundConfig, wantRound *uint64, raw []byte,
	v *glimmer.TicketedView, c *ticketCheck) ([32]byte, error) {
	var digest [32]byte
	if err := v.Decode(raw); err != nil {
		return digest, fmt.Errorf("service: %w", err)
	}
	if string(v.ServiceName) != cfg.Name {
		return digest, ErrWrongService
	}
	if wantRound != nil && v.Round != *wantRound {
		return digest, ErrWrongRound
	}
	if v.Lanes() != cfg.Dim {
		return digest, ErrWrongDim
	}
	if cfg.tickets == nil {
		return digest, ErrUnknownTicket
	}
	if !c.memoized || c.id != v.TicketID || c.round != v.Round {
		if !c.clocked {
			c.now, c.clocked = cfg.tickets.now(), true
		}
		c.aead, c.err = cfg.tickets.check(v.TicketID, v.Round, c.now)
		c.id, c.round, c.memoized = v.TicketID, v.Round, true
	}
	if c.err != nil {
		return digest, c.err
	}
	head, tail := v.PreimageParts()
	c.preimage = append(append(c.preimage[:0], head...), tail...)
	if !xcrypto.OpenSessionMAC(c.aead, c.preimage, v.MAC) {
		return digest, ErrBadMAC
	}
	copy(digest[:], v.MAC)
	return digest, nil
}

// refuse books n refused submissions: the counter and the journal's
// Rejected record. Every round-level refusal is booked here and nowhere
// else — a whole frame at once when the round has left the open state
// (enter), otherwise once per frame, behind its watermarks (leave). The
// caller holds stateMu's read side.
func (p *Pipeline) refuse(n int) {
	p.rejected.Add(int64(n))
	if j := p.journal; j != nil {
		j.Append(Record{Kind: Rejected, Tenant: p.cfg.Name, Round: p.round, Level: LevelRound, Count: n})
	}
}

// Seal fixes the cohort: it stops intake, drains in-flight contributions
// and journals the seal. Once it returns no contribution can move the
// shards, so Sum and Count are stable (CorrectDropout, until Close, is the
// one thing that still adds to the sum). Sealing an already sealed round is
// a no-op; sealing a closed round returns ErrRoundClosed, and so does a
// Seal whose round left its manager (detach) before the cohort was booked:
// retire empties that round and tallies it as dropped.
func (p *Pipeline) Seal() error {
	p.stateMu.Lock()
	if p.state == roundClosed {
		p.stateMu.Unlock()
		return ErrRoundClosed
	}
	transitioned := p.state == roundOpen
	p.state = roundSealed
	p.stateMu.Unlock()
	p.pending.Wait()
	// Booked after the drain: every accepted contribution of the round has
	// written its record by the time the seal record lands, so replay seals
	// exactly the cohort that was sealed live. The read side, as for every
	// record, keeps detach out from the check to the record without
	// stalling other readers (an eviction scan's open) while the seal's
	// barrier syncs.
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if p.forgotten && !p.sealed.Load() {
		return ErrRoundClosed
	}
	if transitioned {
		p.sealed.Store(true)
		if j := p.journal; j != nil {
			j.Append(Record{Kind: RoundSealed, Tenant: p.cfg.Name, Round: p.round})
		}
	}
	return nil
}

// Close seals the round if needed and makes the aggregate immutable.
// Closing twice is a no-op; Sum, Mean, Count and Rejected remain available.
func (p *Pipeline) Close() {
	_ = p.Seal() // only fails with ErrRoundClosed, which Close absorbs
	p.stateMu.Lock()
	if p.state == roundClosed {
		p.stateMu.Unlock()
		return
	}
	p.state = roundClosed
	p.stateMu.Unlock()
	p.stateMu.RLock()
	if j := p.journal; j != nil {
		j.Append(Record{Kind: RoundClosed, Tenant: p.cfg.Name, Round: p.round})
	}
	p.stateMu.RUnlock()
}

// setJournal attaches j, or with nil detaches the pipeline from the journal
// it has: once it returns, every record the pipeline journaled to the old
// journal has landed and no further one will.
func (p *Pipeline) setJournal(j Journal) {
	p.stateMu.Lock()
	p.journal = j
	p.stateMu.Unlock()
}

// snapshot reads sum and count together, in whatever state the round is,
// and forgotten with them: detach sets it before retire empties the shards.
// A chunk's accepted items enter a shard's count at dedup and the sum at
// the fold that follows, both under stateMu's read side; holding the write
// side here puts a contribution accepted concurrently either wholly in or
// wholly out of the result, never split between the sum and the count.
func (p *Pipeline) snapshot() (fixed.Vector, int, bool) {
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	out := fixed.NewVector(p.cfg.Dim)
	count := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		out.AddInPlace(sh.sum)
		count += len(sh.seen)
		sh.mu.Unlock()
	}
	return out, count, p.forgotten
}

// Sum returns the aggregate sum. After Seal it is stable; while the round
// is open it is a live snapshot and concurrent ingest may land before or
// after it.
func (p *Pipeline) Sum() fixed.Vector {
	sum, _, _ := p.snapshot()
	return sum
}

// Count reports accepted contributions (a live snapshot while open).
func (p *Pipeline) Count() int {
	total := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		total += len(sh.seen)
		sh.mu.Unlock()
	}
	return total
}

// Rejected reports refused submissions.
func (p *Pipeline) Rejected() int { return int(p.rejected.Load()) }

// Mean returns the aggregate mean over accepted contributions.
func (p *Pipeline) Mean() (fixed.Vector, error) {
	sum, n, _ := p.snapshot()
	if n == 0 {
		return nil, errors.New("service: no contributions accepted")
	}
	sum.DivScalarInPlace(int64(n))
	return sum, nil
}

// CorrectDropout removes a reconstructed mask from the aggregate after a
// client dropped out mid-round (see blind.RecoverMask). The mask is added
// because the surviving sum is missing exactly the dropped client's mask
// cancellation. Valid while the round is open or sealed; a closed round's
// aggregate is immutable.
//
// Open or sealed, the mask lands in shard 0 under that shard's lock: vector
// addition commutes with every accumulate still in flight, as replaying
// DropoutCorrected does with BatchAccepted, so a correction racing a Seal
// waits for nothing. stateMu is held (shared) through the journal call so
// that Close cannot come between the state check and the record.
func (p *Pipeline) CorrectDropout(recoveredMask fixed.Vector) error {
	if len(recoveredMask) != p.cfg.Dim {
		return ErrWrongDim
	}
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	if p.state == roundClosed {
		return ErrRoundClosed
	}
	sh := p.shards[0]
	sh.mu.Lock()
	sh.sum.AddInPlace(recoveredMask)
	sh.mu.Unlock()
	if j := p.journal; j != nil {
		j.Append(Record{Kind: DropoutCorrected, Tenant: p.cfg.Name, Round: p.round, Lanes: recoveredMask})
	}
	return nil
}
