package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
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
	// ErrRoundSealed is returned by Add/AddBatch once Seal has been called:
	// the cohort is fixed.
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

// PipelineConfig sizes one round's ingest pipeline.
type PipelineConfig struct {
	// ServiceName, Verify, Dim, Round fix the round's identity and trust
	// policy: only contributions endorsed by a vetted Glimmer's signing
	// key, for this service, round, and dimensionality, count.
	//
	// Verify may be nil, which disables signature verification: the
	// pipeline then trusts its transport entirely. That mode exists for
	// pre-authenticated in-process ingest (contributions already verified
	// upstream) and for tests pinning the decode+dedup path's allocations;
	// anything fed from a network must set Verify.
	ServiceName string
	Verify      *xcrypto.VerifyKey
	Dim         int
	Round       uint64
	// Tickets, when non-nil, enables the amortized fast path: contributions
	// in the ticketed wire variant are checked with a constant-time session
	// MAC against this table instead of a signature verify. The table is
	// shared by every round of a tenant (tickets span rounds); nil refuses
	// ticketed contributions with ErrUnknownTicket. The signed path stays
	// available either way — ticketless clients are unaffected.
	Tickets *TicketTable
	// Workers bounds how many chunks one AddBatch frame is split into: the
	// frame's own goroutines run all but the last chunk and exit before
	// AddBatch returns. Workers == 1 processes every frame inline on the
	// calling goroutine (the serial baseline); <= 0 defaults to GOMAXPROCS.
	Workers int
	// Shards is the number of independently locked dedup/sum shards,
	// rounded up to a power of two; <= 0 defaults to 2×Workers. More shards
	// mean less accumulation contention under concurrent ingest.
	Shards int
	// ExpectedCohort, when positive, pre-sizes each shard's dedup set for
	// that many total contributions, so steady-state ingest below the
	// expectation never rehashes (and therefore never allocates) on the
	// dedup insert. Ingest beyond the expectation still works; the maps
	// grow as usual.
	ExpectedCohort int
	// Journal, when non-nil, receives every durable mutation (see the
	// Journal interface in state.go for the barrier contract). Registry
	// tenants get theirs via Registry.SetJournal, which overrides this;
	// the field exists so bare pipelines and round managers — tests,
	// embedded uses without a Registry — can journal too.
	Journal Journal
}

// pipeShard is one lock's worth of aggregation state. Contributions are
// routed by digest, so under concurrent ingest the shards fill evenly and
// two goroutines rarely contend on the same lock. The dedup set is also the
// count: a shard has accepted len(seen) contributions.
type pipeShard struct {
	mu   sync.Mutex
	seen map[[32]byte]bool
	sum  fixed.Vector
}

// Pipeline is the concurrent ingest path for one aggregation round: decode
// and signature checks run on whatever goroutine delivers the contribution
// (many callers, or the goroutines one AddBatch frame fans out to), and
// accumulation is sharded by contribution digest so the only serialization
// is a brief per-shard lock. A Pipeline is locks and data: it owns no
// goroutine, so a round that is sealed, forgotten or simply dropped leaves
// nothing running. All methods are safe for concurrent use.
//
// A round moves through an explicit lifecycle: while open it ingests; Seal
// fixes the cohort and drains in-flight work; Close makes the aggregate
// immutable (CorrectDropout is valid only before close, mirroring the
// blind-recovery window of the dropout protocol). In every state the round's
// aggregate is its shards: the sum is the sum of theirs, the count the size
// of their dedup sets, and nothing keeps a second copy of either.
type Pipeline struct {
	cfg       PipelineConfig
	shardMask uint64
	shards    []*pipeShard

	// allow is the pipeline's own allowlist, or — on a round a RoundManager
	// created — the one value the tenant's manager and all its rounds share.
	allow *allowlist

	// stateMu orders lifecycle transitions against intake: intake holds the
	// read side while registering with pending, transitions hold the write
	// side, so no contribution can slip in after a state change.
	stateMu sync.RWMutex
	state   int
	pending sync.WaitGroup

	rejected atomic.Int64

	// journal, when non-nil, receives every durable mutation (see
	// state.go). Set before the pipeline serves traffic: it is read
	// without synchronization on the hot path.
	journal Journal
}

// allowlist is the set of vetted Glimmer measurements one trust domain
// admits: a tenant's, shared by its RoundManager and every round, or a bare
// pipeline's own. Safe for concurrent use.
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

// NewPipeline creates the ingest pipeline for one round.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 2 * cfg.Workers
	}
	cfg.Shards = nextPowerOfTwo(cfg.Shards)
	p := &Pipeline{
		cfg:       cfg,
		shardMask: uint64(cfg.Shards - 1),
		shards:    make([]*pipeShard, cfg.Shards),
		allow:     newAllowlist(),
		journal:   cfg.Journal,
	}
	// Digest sharding spreads contributions binomially, not evenly, so
	// each shard gets 25% headroom plus a constant over the even split —
	// enough that ingest below the expectation stays rehash-free well
	// past the 1-sigma shard imbalance.
	perShard := 0
	if cfg.ExpectedCohort > 0 {
		even := cfg.ExpectedCohort / cfg.Shards
		perShard = even + even/4 + 16
	}
	for i := range p.shards {
		p.shards[i] = &pipeShard{
			seen: make(map[[32]byte]bool, perShard),
			sum:  fixed.NewVector(cfg.Dim),
		}
	}
	return p
}

func nextPowerOfTwo(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Round returns the round this pipeline aggregates.
func (p *Pipeline) Round() uint64 { return p.cfg.Round }

// Vet allowlists a Glimmer measurement. Safe to call while ingest runs. On
// a round a RoundManager created, the allowlist is the tenant's: the
// measurement is vetted for the manager and all of its rounds.
func (p *Pipeline) Vet(m tee.Measurement) { p.allow.vet(m) }

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

// Add verifies and accumulates one encoded contribution, of either wire
// variant, on the calling goroutine: a frame of one through the ingest plan
// (see batch.go), so a contribution crosses the same code however it was
// submitted. Safe to call from many goroutines concurrently — throughput
// scales with the callers.
func (p *Pipeline) Add(raw []byte) error {
	if err := p.enter(1); err != nil {
		return err
	}
	raws, errs := [1][]byte{raw}, [1]error{}
	p.processBatch(raws[:], errs[:])
	p.leave(errs[:])
	return errs[0]
}

// AddBatch verifies and accumulates a batch of encoded contributions
// through the ingest plan (see batch.go), fanning out across up to Workers
// goroutines of its own when the batch splits, and returns one error slot
// per input (nil for accepted). It blocks until the whole batch has settled.
func (p *Pipeline) AddBatch(raws [][]byte) []error {
	errs := make([]error, len(raws))
	p.AddBatchErrs(raws, errs)
	return errs
}

// verifySigned is the acceptance rule of the signed wire variant, written
// once for pipeline ingest (processBatch) and round admission
// (RoundManager.preverify): zero-copy decode into v, service identity, round
// (when wantRound is non-nil — the cheap checks come before the expensive one
// so stale traffic is cheap to reject), dimension, measurement allowlist,
// signature. Dedup is the caller's business.
//
// The returned digest is the contribution's dedup identity, SHA-256 of the
// raw bytes. v aliases raw. The check copies nothing and allocates nothing
// outside the signature verifier's internals.
func verifySigned(cfg *PipelineConfig, wantRound *uint64, vetted *allowlist,
	raw []byte, v *glimmer.SignedView) ([32]byte, error) {
	var digest [32]byte
	if err := v.Decode(raw); err != nil {
		return digest, fmt.Errorf("service: %w", err)
	}
	if string(v.ServiceName) != cfg.ServiceName {
		return digest, ErrWrongService
	}
	if wantRound != nil && v.Round != *wantRound {
		return digest, ErrWrongRound
	}
	if v.Lanes() != cfg.Dim {
		return digest, ErrWrongDim
	}
	if !vetted.admits(v.Measurement) {
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
// the next: the MAC state, whose keyed pads are rebuilt only when the key
// changes, and a one-entry memo of the last ticket resolved, so a run of
// items under one ticket — the usual whole frame — reads the table once.
// The memo must not outlive the frame (ingestArena.release forgets it):
// between frames the table may expire or evict the ticket it remembers.
type ticketCheck struct {
	mac xcrypto.MACState

	memoized  bool
	id, round uint64
	key       xcrypto.SessionKey
	err       error
}

// verifyTicketed is the acceptance rule of the ticketed wire variant — the
// service's whole trust decision for a MAC'd contribution, written once for
// pipeline ingest (processBatch) and round admission (preverify): zero-copy
// decode into v, service identity, round (when wantRound is non-nil),
// dimension, tickets enabled, ticket resolution (table, expiry, round
// window), session MAC. The asymmetric verify and the measurement allowlist
// were paid once, at grant time; the MAC covers the service name and round,
// so a contribution respelled for another tenant or round never verifies,
// and the table's window and expiry bound what a captured ticket can replay.
//
// The returned digest is the contribution's dedup identity: the verified
// MAC itself, already a collision-resistant digest of every field (only the
// tag is outside its preimage, and a message whose tag was altered never
// verifies), so the fast path skips a second full-message hash. v aliases
// raw. Zero heap allocations, the MAC included.
func verifyTicketed(cfg *PipelineConfig, wantRound *uint64, raw []byte,
	v *glimmer.TicketedView, c *ticketCheck) ([32]byte, error) {
	var digest [32]byte
	if err := v.Decode(raw); err != nil {
		return digest, fmt.Errorf("service: %w", err)
	}
	if string(v.ServiceName) != cfg.ServiceName {
		return digest, ErrWrongService
	}
	if wantRound != nil && v.Round != *wantRound {
		return digest, ErrWrongRound
	}
	if v.Lanes() != cfg.Dim {
		return digest, ErrWrongDim
	}
	if cfg.Tickets == nil {
		return digest, ErrUnknownTicket
	}
	if !c.memoized || c.id != v.TicketID || c.round != v.Round {
		c.key, c.err = cfg.Tickets.check(v.TicketID, v.Round)
		c.id, c.round, c.memoized = v.TicketID, v.Round, true
	}
	if c.err != nil {
		return digest, c.err
	}
	c.mac.SetKey(&c.key)
	head, tail := v.PreimageParts()
	if !c.mac.VerifyKeyed(head, tail, v.MAC) {
		return digest, ErrBadMAC
	}
	copy(digest[:], v.MAC)
	return digest, nil
}

// refuse books n refused submissions: the counter and the journal's
// Rejected record. Every round-level refusal is booked here and nowhere
// else — a whole frame at once when the round has left the open state
// (enter), otherwise once per frame, behind its watermarks (leave).
func (p *Pipeline) refuse(n int) {
	p.rejected.Add(int64(n))
	if j := p.journal; j != nil {
		j.Rejected(p.cfg.ServiceName, p.cfg.Round, LevelRound, n)
	}
}

// Seal fixes the cohort: it stops intake, drains in-flight contributions
// and journals the seal. Once it returns no contribution can move the
// shards, so Sum and Count are stable (CorrectDropout, until Close, is the
// one thing that still adds to the sum). Sealing an already sealed round is
// a no-op; sealing a closed round returns ErrRoundClosed.
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
	// Journaled after the drain: every accepted contribution of the round
	// has written its record by the time the seal record lands, so replay
	// seals exactly the cohort that was sealed live.
	if transitioned {
		if j := p.journal; j != nil {
			j.RoundSealed(p.cfg.ServiceName, p.cfg.Round)
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
	if j := p.journal; j != nil {
		j.RoundClosed(p.cfg.ServiceName, p.cfg.Round)
	}
}

// snapshot reads sum and count together, in whatever state the round is —
// each shard's pair is taken under its lock, so a concurrent Add is either
// wholly in or wholly out of the result, never split between the sum and
// the count.
func (p *Pipeline) snapshot() (fixed.Vector, int) {
	out := fixed.NewVector(p.cfg.Dim)
	count := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		out.AddInPlace(sh.sum)
		count += len(sh.seen)
		sh.mu.Unlock()
	}
	return out, count
}

// Sum returns the aggregate sum. After Seal it is stable; while the round
// is open it is a live snapshot and concurrent Adds may land before or
// after it.
func (p *Pipeline) Sum() fixed.Vector {
	sum, _ := p.snapshot()
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
	sum, n := p.snapshot()
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
		j.DropoutCorrected(p.cfg.ServiceName, p.cfg.Round, recoveredMask)
	}
	return nil
}
