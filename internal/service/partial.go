package service

import (
	"container/list"
	"errors"
	"fmt"
	"sync"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Partial-seal export and merge: the service-layer half of the fleet.
//
// A round sharded across nodes produces one partial aggregate per node.
// Export (Pipeline.PartialSeal) seals the local cohort and emits a signed
// wire.PartialSeal carrying the blinded partial sum, the accept/reject
// accounting, and the full dedup-digest coverage. Merge (the coordinator
// side) folds partials back into the round's exact sum — and because the
// seals carry their digests, the coordinator can demand *disjoint cohort
// coverage*: no contribution may appear in two partials, so the merged
// sum is exactly the single-node sum of the union cohort, and the
// zero-sum dealer masks cancel the moment the union covers the full
// cohort. The coordinator verifies signatures and disjointness but never
// sees an unblinded value, so it stays outside the trust boundary — the
// same minimize-the-trusted-core move the paper makes for the service
// itself.
//
// Retention: a party outside the trust boundary keeps only what it needs to
// do its job. A merge holds its digest coverage only until it completes
// (the coverage exists to refuse overlaps, and a complete merge refuses
// every further seal before it would consult it). A MergeHub keeps a fixed
// number of completed merges, oldest completion retired first, and a fixed
// number of incomplete ones, oldest creation abandoned first; a fixed-size
// ring of tombstones remembers the keys that left, so a seal for a recently
// retired round is refused instead of opening a fresh merge. What must
// outlive a merge — how many seals were absorbed and refused, how many
// contributions merged — is one cumulative ledger, MergeHub.Stats.

// Merge refusal sentinels. Each names the check that turned a seal away;
// a refused seal never perturbs the merge (all-or-nothing absorption).
var (
	// ErrSealMismatch: the seal's dimension or shard count disagrees with
	// the round's first seal, or its shard count is zero.
	ErrSealMismatch = errors.New("service: partial seal does not match this merge")
	// ErrSealReplay: this node's partial was already absorbed.
	ErrSealReplay = errors.New("service: partial seal replayed")
	// ErrSealIdentity: the seal's key does not parse, its key or
	// measurement contradicts the node's first-use pin, or the node has no
	// pin and the hub does not pin on first use.
	ErrSealIdentity = errors.New("service: partial seal identity mismatch")
	// ErrSealSignature: the signature does not verify.
	ErrSealSignature = errors.New("service: partial seal signature invalid")
	// ErrSealOverlap: the seal claims a contribution another partial
	// already covers — double-counting, refused wholesale.
	ErrSealOverlap = errors.New("service: partial seal overlaps an absorbed partial")
	// ErrMergeComplete: the merge already has every partial it expects.
	ErrMergeComplete = errors.New("service: merge already complete")
	// ErrMergeRetired: the hub held a merge for this round and has let it
	// go (completed and aged out, or abandoned incomplete at the cap); the
	// round is not reopened while its tombstone lasts.
	ErrMergeRetired = errors.New("service: merge retired")
)

// NodeSeal is a node's sealing identity: its ring ID, how many partials
// it believes the round splits into, and the enclave measurement + key
// it signs with.
type NodeSeal struct {
	NodeID      uint32
	ShardCount  uint32
	Measurement tee.Measurement
	Key         *xcrypto.SigningKey
}

// PartialSeal seals the round (idempotent; a closed round exports its
// immutable aggregate) and returns the node's signed partial seal. The
// export walks the same path durable snapshots use, so the digests are
// the exact dedup coverage and the sum is the shards' total.
func (p *Pipeline) PartialSeal(n NodeSeal) ([]byte, error) {
	if n.Key == nil {
		return nil, errors.New("service: partial seal needs a node signing key")
	}
	if err := p.Seal(); err != nil && !errors.Is(err, ErrRoundClosed) {
		return nil, err
	}
	rs := p.exportRound()
	digests := make([]byte, 0, len(rs.Digests)*wire.SealDigestLen)
	for i := range rs.Digests {
		digests = append(digests, rs.Digests[i][:]...)
	}
	der, err := n.Key.Public().Marshal()
	if err != nil {
		return nil, fmt.Errorf("service: partial seal: %w", err)
	}
	seal := wire.PartialSeal{
		Service:     p.cfg.Name,
		Round:       p.round,
		NodeID:      n.NodeID,
		ShardCount:  n.ShardCount,
		Measurement: n.Measurement[:],
		NodeKey:     der,
		Count:       uint64(len(rs.Digests)),
		Rejected:    rs.Rejected,
		Sum:         glimmer.VectorToBits(rs.Sum),
		Digests:     digests,
	}
	sig, err := n.Key.Sign(seal.SignedBytes())
	if err != nil {
		return nil, fmt.Errorf("service: partial seal: %w", err)
	}
	seal.Signature = sig
	return wire.EncodePartialSeal(seal), nil
}

// ExportPartialSeal seals the given round and exports its partial seal.
// An unknown round is an error — exporting an empty partial for a round
// the node never opened would let a confused node vote down a merge.
func (m *RoundManager) ExportPartialSeal(round uint64, n NodeSeal) ([]byte, error) {
	p, ok := m.Lookup(round)
	if !ok {
		return nil, fmt.Errorf("service: export partial seal: unknown round %d", round)
	}
	return p.PartialSeal(n)
}

// nodePins is a trust-on-first-use store of node identities: the first
// seal a node ID ever presents pins its verify-key fingerprint and
// measurement, and every later seal under that ID — in any round of the
// hub — must match the pin.
type nodePins struct {
	mu   sync.Mutex
	pins map[uint32]mergePin
}

type mergePin struct {
	key         [32]byte // verify-key fingerprint
	measurement tee.Measurement
}

func (np *nodePins) get(node uint32) (mergePin, bool) {
	np.mu.Lock()
	defer np.mu.Unlock()
	p, ok := np.pins[node]
	return p, ok
}

// pin records a node's identity if it has none yet.
func (np *nodePins) pin(node uint32, p mergePin) {
	np.mu.Lock()
	defer np.mu.Unlock()
	if np.pins == nil {
		np.pins = make(map[uint32]mergePin)
	}
	if _, ok := np.pins[node]; !ok {
		np.pins[node] = p
	}
}

// Merge folds one round's partial seals into its exact sum. A MergeHub
// creates it at the round's first valid seal, which fixes the dimension
// and how many partials complete the round. Absorption is all-or-nothing:
// every check passes before any state changes, so a refused seal —
// forged, replayed, overlapping, stale — leaves the merge exactly as it
// was.
type Merge struct {
	key mergeKey
	hub *MergeHub // AllowTOFU and the pins every round shares

	mu         sync.Mutex
	shardCount uint32 // partials needed; 0 until the first seal
	absorbed   map[uint32]bool
	// seen maps digest -> absorbing node while the merge can still take a
	// seal; released (nil) the moment it completes.
	seen     map[[wire.SealDigestLen]byte]uint32
	sum      fixed.Vector
	count    uint64
	rejected uint64
	refused  uint64
}

// absorbSeal validates and folds one seal, and reports whether the merge
// is complete after it. On refusal the merge is untouched and the refused
// counter is bumped.
func (m *Merge) absorbSeal(seal wire.PartialSeal) (complete bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pin, err := m.checkSeal(seal)
	if err != nil {
		m.refused++
		return false, err
	}
	// All checks passed — commit atomically.
	if m.shardCount == 0 {
		m.sum = fixed.NewVector(len(seal.Sum))
		m.shardCount = seal.ShardCount
	}
	m.hub.pins.pin(seal.NodeID, pin)
	fixed.AccumulateInto(m.sum, seal.Sum)
	for i := 0; i < seal.DigestCount(); i++ {
		m.seen[seal.DigestAt(i)] = seal.NodeID
	}
	m.absorbed[seal.NodeID] = true
	m.count += seal.Count
	m.rejected += seal.Rejected
	if !m.completeLocked() {
		return false, nil
	}
	// checkSeal answers ErrSealReplay or ErrMergeComplete from here on,
	// before it would look at coverage.
	m.seen = nil
	return true, nil
}

// checkSeal runs every refusal check without mutating anything and
// returns the identity the seal carries. Caller holds m.mu.
func (m *Merge) checkSeal(seal wire.PartialSeal) (mergePin, error) {
	if m.shardCount != 0 && len(seal.Sum) != len(m.sum) {
		return mergePin{}, fmt.Errorf("%w: seal sum has %d lanes, merge holds %d",
			ErrSealMismatch, len(seal.Sum), len(m.sum))
	}
	if seal.ShardCount == 0 {
		return mergePin{}, fmt.Errorf("%w: zero shard count", ErrSealMismatch)
	}
	if m.shardCount != 0 && seal.ShardCount != m.shardCount {
		// A stale seal from before a re-home names the old split; it must
		// be re-exported, not merged.
		return mergePin{}, fmt.Errorf("%w: seal splits the round %d ways, merge expects %d",
			ErrSealMismatch, seal.ShardCount, m.shardCount)
	}
	if m.absorbed[seal.NodeID] {
		return mergePin{}, fmt.Errorf("%w: node %d already merged", ErrSealReplay, seal.NodeID)
	}
	if m.completeLocked() {
		return mergePin{}, ErrMergeComplete
	}

	// Identity: the node's pin, or a first use the hub allows.
	carried, err := xcrypto.ParseVerifyKey(seal.NodeKey)
	if err != nil {
		return mergePin{}, fmt.Errorf("%w: unparseable node key: %v", ErrSealIdentity, err)
	}
	id := mergePin{key: carried.Fingerprint()}
	copy(id.measurement[:], seal.Measurement)
	if pin, ok := m.hub.pins.get(seal.NodeID); ok {
		if id != pin {
			return mergePin{}, fmt.Errorf("%w: node %d contradicts its first-use pin", ErrSealIdentity, seal.NodeID)
		}
	} else if !m.hub.AllowTOFU {
		return mergePin{}, fmt.Errorf("%w: node %d has no pin and the hub does not pin on first use", ErrSealIdentity, seal.NodeID)
	}

	if !carried.Verify(seal.SignedBytes(), seal.Signature) {
		return mergePin{}, fmt.Errorf("%w: node %d", ErrSealSignature, seal.NodeID)
	}

	// Disjoint coverage: every digest must be new to the merge. Checked
	// in full before commit so an overlapping seal changes nothing.
	for i := 0; i < seal.DigestCount(); i++ {
		if owner, dup := m.seen[seal.DigestAt(i)]; dup {
			return mergePin{}, fmt.Errorf("%w: node %d re-claims a contribution node %d covers",
				ErrSealOverlap, seal.NodeID, owner)
		}
	}
	return id, nil
}

// Complete reports whether every expected partial has been absorbed.
func (m *Merge) Complete() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.completeLocked()
}

func (m *Merge) completeLocked() bool {
	return m.shardCount != 0 && uint32(len(m.absorbed)) >= m.shardCount
}

// Sum returns the merged sum so far (the round's exact blinded sum once
// Complete). The returned vector is a copy.
func (m *Merge) Sum() fixed.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sum == nil {
		return nil
	}
	return m.sum.Clone()
}

// Result snapshots the merge as a wire.MergeResult.
func (m *Merge) Result() wire.MergeResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := wire.MergeResult{
		Service:  m.key.service,
		Round:    m.key.round,
		Expect:   m.shardCount,
		Merged:   uint32(len(m.absorbed)),
		Count:    m.count,
		Rejected: m.rejected,
		Refused:  m.refused,
	}
	if m.sum != nil {
		r.Sum = glimmer.VectorToBits(m.sum)
	}
	return r
}

// MergeHub runs merges for many (service, round) pairs — the coordinator
// process's top-level state. A round's merge is created at its first
// valid seal, so the coordinator needs to know neither the fleet's tenant
// list nor its nodes ahead of time. A hub holds a bounded working set
// (see the retention rule at the top of this file).
type MergeHub struct {
	// AllowTOFU lets a node's first seal pin its identity (known-hosts
	// semantics, as at the edge): node keys are generated per process and
	// there is no out-of-band registry. A hub without it has nothing to
	// check a seal against and refuses every seal.
	AllowTOFU bool

	pins nodePins // shared across every merge: pins span rounds

	mu     sync.Mutex
	merges map[mergeKey]*hubEntry
	// live holds the incomplete merges in creation order, done the
	// completed ones in completion order; both carry *hubEntry.
	live, done list.List
	tombs      tombstones
	stats      HubStats // the cumulative fields; Live and Completed are list lengths
	caps       hubCaps  // zero means the constants below; a same-package test may set smaller ones
}

// hubCaps bounds a hub's working set.
type hubCaps struct {
	live  int // incomplete merges; at the cap the oldest-created is abandoned
	done  int // completed merges; at the cap the oldest completion is retired
	tombs int // retired and abandoned keys remembered
}

const (
	maxLiveMerges   = 1024
	maxDoneMerges   = 256
	mergeTombstones = 4096
)

func (h *MergeHub) limits() hubCaps {
	if h.caps == (hubCaps{}) {
		return hubCaps{live: maxLiveMerges, done: maxDoneMerges, tombs: mergeTombstones}
	}
	return h.caps
}

type mergeKey struct {
	service string
	round   uint64
}

// hubEntry is one merge the hub holds, with its place in live or done.
type hubEntry struct {
	m    *Merge
	elem *list.Element // nil until the merge is registered
	done bool
}

// tombstones is a fixed-size ring of keys that left the hub, with a set
// over the same keys for the lookup. Round numbers are client-chosen, so
// this is deliberately not a per-service high-water mark: one completed
// round at 1<<63 would refuse every later round.
type tombstones struct {
	ring []mergeKey
	next int
	set  map[mergeKey]struct{}
}

func (t *tombstones) add(k mergeKey, size int) {
	if t.set == nil {
		t.set = make(map[mergeKey]struct{})
	}
	if len(t.ring) < size {
		t.ring = append(t.ring, k)
	} else {
		delete(t.set, t.ring[t.next])
		t.ring[t.next] = k
		t.next = (t.next + 1) % size
	}
	t.set[k] = struct{}{}
}

func (t *tombstones) has(k mergeKey) bool {
	_, ok := t.set[k]
	return ok
}

// HubStats is a hub's cumulative ledger. Per-merge counters die with
// their merge; these do not.
type HubStats struct {
	// Live and Completed count the merges the hub holds now.
	Live, Completed int
	// Retired counts completed merges that aged out of the hub, Abandoned
	// the incomplete ones dropped at the cap.
	Retired, Abandoned uint64
	// SealsAbsorbed and SealsRefused count every seal handed to
	// MergePartialSeal, each exactly once.
	SealsAbsorbed, SealsRefused uint64
	// ContribsMerged and ContribsRejected total the accepted and
	// node-refused counts the absorbed seals carried.
	ContribsMerged, ContribsRejected uint64
}

// Stats returns the hub's ledger.
func (h *MergeHub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.stats
	s.Live, s.Completed = h.live.Len(), h.done.Len()
	return s
}

// Lookup returns the merge for (service, round) if the hub still holds it:
// retired and abandoned merges are gone.
func (h *MergeHub) Lookup(service string, round uint64) (*Merge, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	e, ok := h.merges[mergeKey{service, round}]
	if !ok {
		return nil, false
	}
	return e.m, true
}

// Merges returns the merges the hub holds — live and retained completed
// ones, not every merge it ever ran — keyed by service name and round.
func (h *MergeHub) Merges() map[string][]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]uint64, len(h.merges))
	for k := range h.merges {
		out[k.service] = append(out[k.service], k.round)
	}
	return out
}

// MergePartialSeal absorbs one encoded seal into the matching merge and
// returns the merge's encoded wire.MergeResult — the fleet-merge reply
// body. A first-contact seal is checked against a merge the hub does not
// hold yet and the merge is registered only once the seal is absorbed, so
// a refusal leaves nothing behind but its count in Stats. On refusal the
// error is returned and the merge is unchanged; the caller must not retain
// seal past the call.
func (h *MergeHub) MergePartialSeal(seal []byte) ([]byte, error) {
	dec, err := wire.DecodePartialSeal(seal)
	if err != nil {
		return nil, h.refuse(err)
	}
	for {
		e, err := h.entry(mergeKey{dec.Service, dec.Round})
		if err != nil {
			return nil, h.refuse(err)
		}
		complete, err := e.m.absorbSeal(dec)
		if err != nil {
			return nil, h.refuse(err)
		}
		if h.commit(e, complete, &dec) {
			return wire.EncodeMergeResult(e.m.Result()), nil
		}
		// Another first contact for the same round registered its merge
		// while this one was verifying: go again, against that merge.
	}
}

func (h *MergeHub) refuse(err error) error {
	h.mu.Lock()
	h.stats.SealsRefused++
	h.mu.Unlock()
	return err
}

// entry returns the registered merge for key, or an unregistered one for a
// first contact.
func (h *MergeHub) entry(key mergeKey) (*hubEntry, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.merges == nil {
		h.merges = make(map[mergeKey]*hubEntry)
	}
	if e, ok := h.merges[key]; ok {
		return e, nil
	}
	if h.tombs.has(key) {
		return nil, fmt.Errorf("%w: %s/%d", ErrMergeRetired, key.service, key.round)
	}
	return &hubEntry{m: &Merge{
		key:      key,
		hub:      h,
		absorbed: make(map[uint32]bool),
		seen:     make(map[[wire.SealDigestLen]byte]uint32),
	}}, nil
}

// commit books an absorbed seal: it registers a first-contact merge,
// moves a merge that just completed from live to done, and enforces both
// caps. It reports false — nothing booked — when e is a first-contact
// merge and the round was registered (or retired) in the meantime.
func (h *MergeHub) commit(e *hubEntry, complete bool, seal *wire.PartialSeal) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if e.elem == nil {
		if _, taken := h.merges[e.m.key]; taken || h.tombs.has(e.m.key) {
			return false
		}
		h.merges[e.m.key] = e
		e.elem = h.live.PushBack(e)
	}
	h.stats.SealsAbsorbed++
	h.stats.ContribsMerged += seal.Count
	h.stats.ContribsRejected += seal.Rejected
	// A merge abandoned while this seal was verifying stays abandoned.
	if complete && !e.done && h.merges[e.m.key] == e {
		h.live.Remove(e.elem)
		e.elem, e.done = h.done.PushBack(e), true
	}
	caps := h.limits()
	if h.live.Len() > caps.live {
		h.drop(&h.live, caps.tombs)
		h.stats.Abandoned++
	}
	if h.done.Len() > caps.done {
		h.drop(&h.done, caps.tombs)
		h.stats.Retired++
	}
	return true
}

// drop lets the oldest merge of l go, behind a tombstone.
func (h *MergeHub) drop(l *list.List, tombs int) {
	e := l.Remove(l.Front()).(*hubEntry)
	delete(h.merges, e.m.key)
	h.tombs.add(e.m.key, tombs)
}
