// Package fleet places (tenant, round) on glimmerd nodes.
//
// A fleet node hosts every tenant but admits only the rounds a
// consistent-hash ring places on it (service.TenantConfig.Owns, from Owns
// below), so each round has one owner that holds all of it, seals it and
// ships one seal to the merge coordinator. The ring has virtual nodes and
// is keyed on (service, round), with an alloc-free owner lookup fed by the
// contribution peeks (glimmer.PeekContributionService /
// PeekContributionRound), so per-contribution routing stays on the
// zero-alloc ingest path.
//
// Every node builds its ring once, from its peer list: a ring does not
// change while the fleet runs. A dead node's rounds wait for its restart —
// no other node owns them — and two nodes whose peer lists disagree can
// both own a round, which the coordinator then merges from the first seal
// alone. Re-homing a dead node's rounds would need a live ring rebalance.
package fleet

import (
	"fmt"
	"sort"

	"glimmers/internal/glimmer"
)

// DefaultVirtualNodes is how many ring points each node plants when the
// caller doesn't say. 64 keeps the max/mean ownership skew under ~30% for
// small fleets while the ring stays tiny enough to binary-search hot.
const DefaultVirtualNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node uint32
}

// Ring is an immutable consistent-hash ring. Immutability is the
// concurrency story: lookups are lock-free reads.
type Ring struct {
	points []point
	nodes  []uint32
}

// fnv-1a, inlined so the per-contribution lookup path allocates nothing
// and calls nothing.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvUint64(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (v >> shift & 0xFF)) * fnvPrime
	}
	return h
}

// mix is a 64-bit avalanche finalizer (murmur3's fmix64). FNV-1a alone is
// a poor ring hash: a trailing byte change (the round number, the vnode
// replica) barely moves the high bits, so every vnode of a node lands in
// one tight arc and one node ends up owning the whole keyspace. The
// finalizer spreads every input bit across the word.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// NewRing builds a ring over the given node IDs, planting vnodes virtual
// points per node (DefaultVirtualNodes if vnodes <= 0). Node IDs must be
// distinct; order does not matter — any permutation builds the identical
// ring, so every fleet member derives the same placement from the same
// peer list.
func NewRing(nodes []uint32, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	seen := make(map[uint32]bool, len(nodes))
	r := &Ring{
		points: make([]point, 0, len(nodes)*vnodes),
		nodes:  append([]uint32(nil), nodes...),
	}
	sort.Slice(r.nodes, func(i, j int) bool { return r.nodes[i] < r.nodes[j] })
	for _, n := range r.nodes {
		if seen[n] {
			return nil, fmt.Errorf("fleet: duplicate node id %d", n)
		}
		seen[n] = true
		for rep := 0; rep < vnodes; rep++ {
			h := fnvBytes(fnvOffset, []byte("glimmers/fleet/v1"))
			h = fnvUint64(h, uint64(n))
			h = fnvUint64(h, uint64(rep))
			r.points = append(r.points, point{hash: mix(h), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node ID so placement
		// stays permutation-independent.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the ring's membership, ascending. Callers must not
// mutate the returned slice.
func (r *Ring) Nodes() []uint32 { return r.nodes }

// Size returns the number of (real) nodes on the ring.
func (r *Ring) Size() int { return len(r.nodes) }

// Owner returns the node that owns (service, round): the first virtual
// node at or clockwise of the key's hash. It does not allocate — service
// may be a view straight out of a wire frame.
func (r *Ring) Owner(service []byte, round uint64) uint32 {
	h := mix(fnvUint64(fnvBytes(fnvOffset, service), round))
	// Inlined lower-bound search; sort.Search costs a closure allocation
	// in some inlining states and this runs per contribution.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap: the ring is a circle
	}
	return r.points[lo].node
}

// OwnerOf routes a raw encoded SignedContribution (or TicketedContribution
// — both lead with the service name then the round) by peeking its
// service name and round without decoding the rest. The peeks are views;
// the whole lookup is alloc-free.
func (r *Ring) OwnerOf(raw []byte) (uint32, error) {
	service, err := glimmer.PeekContributionService(raw)
	if err != nil {
		return 0, err
	}
	round, err := glimmer.PeekContributionRound(raw)
	if err != nil {
		return 0, err
	}
	return r.Owner(service, round), nil
}

// Owns is node's admission rule for service's rounds: true exactly for
// the rounds the ring places on node. A fleet node's tenant creates only
// these (service.TenantConfig.Owns), so a round's one owner holds all of
// it.
func (r *Ring) Owns(node uint32, service string) func(round uint64) bool {
	name := []byte(service)
	return func(round uint64) bool { return r.Owner(name, round) == node }
}
