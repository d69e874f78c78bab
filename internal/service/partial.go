package service

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Partial-seal export and merge: the service-layer half of the fleet.
//
// A fleet node admits only the rounds its ring places on it
// (TenantConfig.Owns), so a round's one owner holds all of it. Export
// (Pipeline.PartialSeal) seals the round and emits a signed wire.PartialSeal
// carrying the blinded sum and the accept/reject accounting, declaring one
// partial (NodeSeal.ShardCount 1). Merge (the coordinator side) takes a
// round's one seal as its exact sum: the coordinator checks who signed it
// and learns nothing else — it never sees an unblinded value or anything
// per contribution, so it stays outside the trust boundary, the same
// minimize-the-trusted-core move the paper makes for the service itself.
//
// A seal that declares a split round is refused. The fleet gave up
// splitting a round across nodes, and with it re-homing a dead node's rounds
// to a successor: a round waits for its owner's restart. Only a live ring
// rebalance would bring them back, and with them a check that the partials
// of one round cover disjoint contributions. Two nodes whose peer lists
// disagree can both own a round; the hub merges the first seal and refuses
// the second with ErrMergeComplete, so the round is withheld in part, never
// wrong.
//
// Retention: a party outside the trust boundary keeps only what it needs to
// do its job. A seal carries a round's sum and counts, never a digest. A
// MergeHub keeps a fixed number of merges, the oldest retired first; a
// fixed-size ring of tombstones remembers the keys that left, so a seal for
// a recently retired round is refused instead of opening a fresh merge.
// What must outlive a merge — how many seals were absorbed and refused, how
// many contributions merged — is one cumulative ledger, MergeHub.Stats.

// NodeSeal is a node's sealing identity: its ring ID, how many partials
// it declares a round splits into (a hub merges only 1), and the enclave
// measurement + key it signs with.
type NodeSeal struct {
	NodeID      uint32
	ShardCount  uint32
	Measurement tee.Measurement
	Key         *xcrypto.SigningKey
}

// PartialSeal seals the round (idempotent; a closed round exports its
// immutable aggregate) and returns the node's signed partial seal. A round
// that has left its manager is refused with ErrRoundClosed: retire empties
// its shards, and a seal of them would merge as the round's answer.
func (p *Pipeline) PartialSeal(n NodeSeal) ([]byte, error) {
	if n.Key == nil {
		return nil, errors.New("service: partial seal needs a node signing key")
	}
	_ = p.Seal() // fails only on a closed round: one forgotten is refused below
	sum, count, forgotten := p.snapshot()
	if forgotten {
		return nil, fmt.Errorf("service: partial seal: round %d left its manager: %w", p.round, ErrRoundClosed)
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
		Count:       uint64(count),
		Rejected:    uint64(p.rejected.Load()),
		Sum:         glimmer.VectorToBits(sum),
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

// take compares a node's identity with its pin and pins it if it has none
// yet, in one step: of two first uses racing under one ID, one pins and
// the other contradicts the pin.
func (np *nodePins) take(node uint32, p mergePin) error {
	np.mu.Lock()
	defer np.mu.Unlock()
	if pinned, ok := np.pins[node]; ok {
		if pinned != p {
			return fmt.Errorf("%w: node %d contradicts its first-use pin", wire.ErrSealIdentity, node)
		}
		return nil
	}
	if np.pins == nil {
		np.pins = make(map[uint32]mergePin)
	}
	np.pins[node] = p
	return nil
}

// Merge is one round's merged sum: the round's one absorbed seal, fixed
// when the hub registers it. Only its refusal counter moves afterwards.
type Merge struct {
	key      mergeKey
	node     uint32 // the node whose seal the merge holds
	sum      fixed.Vector
	count    uint64
	rejected uint64
	refused  atomic.Uint64
}

// Sum returns the merged sum: the round's exact blinded sum. The returned
// vector is a copy.
func (m *Merge) Sum() fixed.Vector { return m.sum.Clone() }

// Result snapshots the merge as a wire.MergeResult.
func (m *Merge) Result() wire.MergeResult {
	return wire.MergeResult{
		Service:  m.key.service,
		Round:    m.key.round,
		Expect:   1,
		Merged:   1,
		Count:    m.count,
		Rejected: m.rejected,
		Refused:  m.refused.Load(),
		Sum:      glimmer.VectorToBits(m.sum),
	}
}

// MergeHub runs merges for many (service, round) pairs — the coordinator
// process's top-level state. A round's merge is created at its one valid
// seal, so the coordinator needs to know neither the fleet's tenant list
// nor its nodes ahead of time. A hub holds a bounded working set (see the
// retention rule at the top of this file).
type MergeHub struct {
	// AllowTOFU lets a node's first seal pin its identity (known-hosts
	// semantics, as at the edge): node keys are generated per process and
	// there is no out-of-band registry. A hub without it has nothing to
	// check a seal against and refuses every seal.
	AllowTOFU bool

	pins nodePins // shared across every merge: pins span rounds

	mu     sync.Mutex
	merges map[mergeKey]*Merge
	done   list.List // the held merges, *Merge, oldest first
	tombs  tombstones
	stats  HubStats // the cumulative fields; Completed is done's length
	caps   hubCaps  // zero means the constants below; a same-package test may set smaller ones
}

// hubCaps bounds a hub's working set.
type hubCaps struct {
	done  int // merges held; at the cap the oldest is retired
	tombs int // retired keys remembered
}

const (
	maxMerges       = 256
	mergeTombstones = 4096
)

func (h *MergeHub) limits() hubCaps {
	if h.caps == (hubCaps{}) {
		return hubCaps{done: maxMerges, tombs: mergeTombstones}
	}
	return h.caps
}

type mergeKey struct {
	service string
	round   uint64
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
	// Completed counts the merges the hub holds now, Retired those that
	// aged out of it.
	Completed int
	Retired   uint64
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
	s.Completed = h.done.Len()
	return s
}

// Lookup returns the merge for (service, round) if the hub still holds it:
// retired merges are gone.
func (h *MergeHub) Lookup(service string, round uint64) (*Merge, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	m, ok := h.merges[mergeKey{service, round}]
	return m, ok
}

// Merges returns the merges the hub holds — not every merge it ever ran —
// keyed by service name and round.
func (h *MergeHub) Merges() map[string][]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string][]uint64, len(h.merges))
	for k := range h.merges {
		out[k.service] = append(out[k.service], k.round)
	}
	return out
}

// MergePartialSeal absorbs one encoded seal as its round's merge and
// returns the merge's encoded wire.MergeResult — the fleet-merge reply
// body. On refusal the error is returned and the hub holds nothing new but
// the refusal's count in Stats; the caller must not retain seal past the
// call.
func (h *MergeHub) MergePartialSeal(seal []byte) ([]byte, error) {
	dec, err := wire.DecodePartialSeal(seal)
	if err == nil {
		var m *Merge
		if m, err = h.absorb(&dec); err == nil {
			return wire.EncodeMergeResult(m.Result()), nil
		}
	}
	h.mu.Lock()
	h.stats.SealsRefused++
	h.mu.Unlock()
	return nil, err
}

// absorb checks a seal and registers its round's merge, cheapest check
// first: the seal's own shape, then what the hub holds for the round, so a
// seal for a merged round costs no signature check; then, outside the hub
// lock, the node's identity and signature. Registration is one locked
// step: it repeats the hub's checks, takes the node's pin and books the
// merge, so of two seals racing for one round or one pin, one wins.
func (h *MergeHub) absorb(seal *wire.PartialSeal) (*Merge, error) {
	if seal.ShardCount != 1 {
		return nil, fmt.Errorf("%w: seal splits the round %d ways, a round merges from one seal",
			wire.ErrSealMismatch, seal.ShardCount)
	}
	key := mergeKey{seal.Service, seal.Round}
	h.mu.Lock()
	err := h.heldLocked(key, seal.NodeID)
	h.mu.Unlock()
	if err != nil {
		return nil, err
	}
	id, err := h.verify(seal)
	if err != nil {
		return nil, err
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.heldLocked(key, seal.NodeID); err != nil {
		return nil, err
	}
	if err := h.pins.take(seal.NodeID, id); err != nil {
		return nil, err
	}
	m := &Merge{key: key, node: seal.NodeID, sum: fixed.NewVector(len(seal.Sum)), count: seal.Count, rejected: seal.Rejected}
	fixed.AccumulateInto(m.sum, seal.Sum)
	if h.merges == nil {
		h.merges = make(map[mergeKey]*Merge)
	}
	h.merges[key] = m
	h.done.PushBack(m)
	h.stats.SealsAbsorbed++
	h.stats.ContribsMerged += seal.Count
	h.stats.ContribsRejected += seal.Rejected
	if caps := h.limits(); h.done.Len() > caps.done {
		old := h.done.Remove(h.done.Front()).(*Merge)
		delete(h.merges, old.key)
		h.tombs.add(old.key, caps.tombs)
		h.stats.Retired++
	}
	return m, nil
}

// heldLocked refuses a seal for a round the hub has merged — a replay
// from the merge's own node, a late seal from any other, each counted on
// the merge — or has retired. Caller holds h.mu.
func (h *MergeHub) heldLocked(key mergeKey, node uint32) error {
	if m, ok := h.merges[key]; ok {
		m.refused.Add(1)
		if m.node == node {
			return fmt.Errorf("%w: node %d already merged", wire.ErrSealReplay, node)
		}
		return fmt.Errorf("%w: node %d merged %s/%d", wire.ErrMergeComplete, m.node, key.service, key.round)
	}
	if h.tombs.has(key) {
		return fmt.Errorf("%w: %s/%d", wire.ErrMergeRetired, key.service, key.round)
	}
	return nil
}

// verify checks a seal's identity — its node's pin, or a first use the
// hub allows — and its signature, and returns the identity it carries.
// The pin check only orders the refusals; the pin is compared again as it
// is taken.
func (h *MergeHub) verify(seal *wire.PartialSeal) (mergePin, error) {
	carried, err := xcrypto.ParseVerifyKey(seal.NodeKey)
	if err != nil {
		return mergePin{}, fmt.Errorf("%w: unparseable node key: %v", wire.ErrSealIdentity, err)
	}
	id := mergePin{key: carried.Fingerprint()}
	copy(id.measurement[:], seal.Measurement)
	if pin, ok := h.pins.get(seal.NodeID); ok {
		if id != pin {
			return mergePin{}, fmt.Errorf("%w: node %d contradicts its first-use pin", wire.ErrSealIdentity, seal.NodeID)
		}
	} else if !h.AllowTOFU {
		return mergePin{}, fmt.Errorf("%w: node %d has no pin and the hub does not pin on first use", wire.ErrSealIdentity, seal.NodeID)
	}
	if !carried.Verify(seal.SignedBytes(), seal.Signature) {
		return mergePin{}, fmt.Errorf("%w: node %d", wire.ErrSealSignature, seal.NodeID)
	}
	return id, nil
}
