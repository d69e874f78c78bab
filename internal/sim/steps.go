package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"glimmers/internal/fixed"
	"glimmers/internal/fleet"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// Fault steps as values. A step is one scripted action against a built
// world — honest traffic, a fault, a probe, or a check — and a scenario is
// a []step literal played in order, so a new fault product (a crash during
// a partition, say) is another literal, not another world. A step returns
// an error only when the scenario cannot continue (setup failed); an
// invariant the system broke goes to the script's checker.
type step func(s *script) error

// place names a node relative to the round in play, so a scenario reads
// the same whichever node the ring happens to pick.
type place int

const (
	// owner is the node the ring places the round in play on.
	owner place = iota
	// successor is where the round re-homes when its owner is unreachable
	// (crashed, partitioned): its owner on Ring.Without(owner).
	successor
)

// positiveOr defaults a scenario config field left zero (or negative).
func positiveOr(v, def int) int {
	if v <= 0 {
		return def
	}
	return v
}

// script is a built world plus the state steps share: the round in play
// and its placement, the contributions and seals already produced (a
// dealer mask is one-time-use per device and round, and a replayed seal
// must be the same bytes), and the ledger of what the probes injected.
type script struct {
	*checker
	t *tenant
	// values[r][i] is device i's honest contribution to round r; the exact
	// expected sum is their per-round total (the zero-sum masks cancel
	// only over the full cohort, so any lost or doubled contribution
	// poisons the sum loudly).
	values map[uint64][]fixed.Vector
	nodes  map[uint32]*node
	ring   *fleet.Ring
	// hub is the merge coordinator. It never sees an unblinded value and
	// holds no node registry: identities pin on first use and the pins
	// span rounds, so a key swap in any later round is caught.
	hub *service.MergeHub

	round  uint64
	placed [2]uint32         // node id by place, for the round in play
	owners map[uint64]uint32 // ring placement of every round played

	raws   map[uint64][][]byte
	seals  map[sealRef][]byte
	advKey *xcrypto.SigningKey

	// injected counts, per node, the tenant-level refusals the probes
	// caused; refusedSeals the coordinator-level ones.
	injected     map[uint32]int
	refusedSeals uint64

	mergedRounds   int
	mergedContribs uint64
	sumDigests     map[uint64]string
}

// build is the world builder for scripted scenarios: substrate → tenant
// (fleet provisioned with masks for spec.rounds, honest values drawn from
// the seed) → nodes, each hosting the tenant and cold-started from its
// spec, placed on a consistent-hash ring.
func build(spec tenantSpec, nodes ...nodeSpec) (*script, error) {
	sub, err := newSubstrate()
	if err != nil {
		return nil, err
	}
	t, err := sub.provision(spec)
	if err != nil {
		return nil, err
	}
	s := newScript(t)
	rng := rand.New(rand.NewSource(spec.seed))
	for _, round := range spec.rounds {
		vals := make([]fixed.Vector, spec.devices)
		for i := range vals {
			vals[i] = fixed.NewVector(spec.dim)
			for j := range vals[i] {
				vals[i][j] = fixed.FromFloat(rng.Float64())
			}
		}
		s.values[round] = vals
	}
	ids := make([]uint32, 0, len(nodes))
	for _, ns := range nodes {
		if ns.SealKey, err = xcrypto.NewSigningKey(); err != nil {
			s.shutdown()
			return nil, fmt.Errorf("sim: node %d key: %w", ns.NodeID, err)
		}
		n, err := sub.start(ns, s.t)
		if err != nil {
			s.shutdown()
			return nil, err
		}
		if n.Recovered().SnapshotLoaded || n.Recovered().Records != 0 {
			s.violate("node %d cold start found state in a fresh dir: %+v", ns.NodeID, n.Recovered())
		}
		s.nodes[ns.NodeID] = n
		ids = append(ids, ns.NodeID)
	}
	if s.ring, err = fleet.NewRing(ids, 0); err != nil {
		s.shutdown()
		return nil, err
	}
	return s, nil
}

// newScript wraps a provisioned tenant and the nodes hosting it.
func newScript(t *tenant, nodes ...*node) *script {
	s := &script{
		checker:    new(checker),
		t:          t,
		values:     make(map[uint64][]fixed.Vector, len(t.rounds)),
		nodes:      make(map[uint32]*node, len(nodes)),
		hub:        &service.MergeHub{AllowTOFU: true},
		owners:     make(map[uint64]uint32),
		raws:       make(map[uint64][][]byte),
		seals:      make(map[sealRef][]byte),
		injected:   make(map[uint32]int),
		sumDigests: make(map[uint64]string),
	}
	for _, n := range nodes {
		s.nodes[n.NodeID] = n
	}
	return s
}

func (s *script) shutdown() {
	for _, n := range s.nodes {
		n.shutdown()
	}
	s.t.destroy()
}

// play runs the steps in order, stopping at the first that cannot
// continue. A nil step is skipped, so a literal may leave a conditional
// slot empty.
func (s *script) play(steps ...step) error {
	for _, st := range steps {
		if st == nil {
			continue
		}
		if err := st(s); err != nil {
			return err
		}
	}
	return nil
}

func (s *script) at(p place) *node { return s.nodes[s.placed[p]] }

// pipeline returns node at's pipeline for the round in play.
func (s *script) pipeline(at place) (*service.Pipeline, bool) {
	return s.at(at).manager(s.t).Lookup(s.round)
}

func (s *script) expectedSum() fixed.Vector {
	sum := fixed.NewVector(s.t.dim)
	for _, v := range s.values[s.round] {
		sum.AddInPlace(v)
	}
	return sum
}

// raw returns device d's contribution to the round in play, produced on
// first use: a re-send is the identical bytes.
func (s *script) raw(d int) ([]byte, error) {
	if s.raws[s.round] == nil {
		s.raws[s.round] = make([][]byte, s.t.devices)
	}
	if s.raws[s.round][d] == nil {
		raw, err := s.t.contribute(d, s.round, s.values[s.round][d], nil)
		if err != nil {
			return nil, fmt.Errorf("sim: round %d device %d: %w", s.round, d, err)
		}
		s.raws[s.round][d] = raw
	}
	return s.raws[s.round][d], nil
}

// inRound plays steps with round in play: the ring places it on its owner
// and names the successor it would re-home to.
func inRound(round uint64, steps ...step) step {
	return func(s *script) error {
		key := []byte(s.t.name)
		s.round = round
		s.placed = [2]uint32{owner: s.ring.Owner(key, round)}
		if s.ring.Size() > 1 {
			shrunk, err := s.ring.Without(s.placed[owner])
			if err != nil {
				return err
			}
			s.placed[successor] = shrunk.Owner(key, round)
		}
		s.owners[round] = s.placed[owner]
		return s.play(steps...)
	}
}

// grantTickets runs every device's grant exchange for rounds [first, last]
// against node at — the fleet's one asymmetric operation per session.
func grantTickets(at place, first, last uint64) step {
	return func(s *script) error {
		for d := range s.t.devs {
			if err := s.t.grantTicket(d, first, last, s.at(at).Registry().GrantTicket); err != nil {
				return err
			}
		}
		return nil
	}
}

// ingest submits the honest contributions of devices [lo, hi) to node at,
// which must accept each. Ingest left unflushed before a crash is the
// stage-and-lose fault; ingest at the successor is the re-home after a
// crash or partition.
func ingest(at place, lo, hi int) step {
	return func(s *script) error {
		for d := lo; d < hi; d++ {
			raw, err := s.raw(d)
			if err != nil {
				return err
			}
			s.expectAccept(s.at(at), raw, fmt.Sprintf("round %d device %d", s.round, d))
		}
		return nil
	}
}

// forged submits device d's contribution with the last byte of its
// authenticator flipped; node at must refuse it (with want; nil accepts
// any refusal). Scenarios play it before d's genuine copy, so the dedup
// table cannot mask an authentication bypass.
func forged(at place, d int, want error) step {
	return func(s *script) error {
		return s.refusedCopy(at, d, true, want, "forged contribution")
	}
}

// duplicate re-submits device d's already-accepted contribution; node
// at's dedup layer must refuse the copy.
func duplicate(at place, d int) step {
	return func(s *script) error {
		return s.refusedCopy(at, d, false, service.ErrDuplicate, "duplicate")
	}
}

func (s *script) refusedCopy(at place, d int, forge bool, want error, what string) error {
	raw, err := s.raw(d)
	if err != nil {
		return err
	}
	if forge {
		raw = flipLastByte(raw)
	}
	n := s.at(at)
	s.expectRefuse(n, raw, want, fmt.Sprintf("round %d device %d %s", s.round, d, what))
	s.injected[n.NodeID]++
	return nil
}

func flipLastByte(raw []byte) []byte {
	out := append([]byte(nil), raw...)
	out[len(out)-1] ^= 0x01
	return out
}

// onNode lifts an operation on node at into a step; its failure ends the
// scenario.
func onNode(at place, what string, op func(s *script, n *node) error) step {
	return func(s *script) error {
		if err := op(s, s.at(at)); err != nil {
			return fmt.Errorf("sim: round %d %s: %w", s.round, what, err)
		}
		return nil
	}
}

// snapshot takes the periodic snapshot every deployment takes.
func snapshot(at place) step {
	return onNode(at, "snapshot", func(_ *script, n *node) error { return n.Store().Snapshot(n.Registry()) })
}

// flush pins everything node at has staged to disk: the records a crash
// after this point must not lose.
func flush(at place) step {
	return onNode(at, "WAL flush", func(_ *script, n *node) error { return n.Store().Flush() })
}

// seal seals the round in play on node at.
func seal(at place) step {
	return onNode(at, "seal", func(s *script, n *node) error { return n.manager(s.t).Seal(s.round) })
}

// crash kills node at (see node.kill) and restarts it from its spec. The
// restart must load a snapshot that exists, truncate a torn tail, and
// replay without errors.
func crash(at place, tornTail bool) step {
	return func(s *script) error {
		dead := s.at(at)
		if err := dead.Store().Err(); err != nil {
			return fmt.Errorf("sim: WAL append: %w", err)
		}
		_, statErr := os.Stat(filepath.Join(dead.StateDir, "snapshot"))
		if err := dead.kill(tornTail); err != nil {
			return err
		}
		n, err := dead.sub.start(dead.nodeSpec, s.t)
		if err != nil {
			return err
		}
		s.nodes[n.NodeID] = n
		if statErr == nil && !n.Recovered().SnapshotLoaded {
			s.violate("restarted node %d did not load the snapshot", n.NodeID)
		}
		if tornTail && n.Recovered().TruncatedBytes == 0 {
			s.violate("restarted node %d did not truncate the torn WAL tail", n.NodeID)
		}
		if n.Recovered().ReplayErrors != 0 {
			s.violate("node %d replay reported %d errors", n.NodeID, n.Recovered().ReplayErrors)
		}
		return nil
	}
}

// holds demands that node at hold exactly want accepted contributions for
// the round in play — after a crash, exactly the flushed prefix: staged
// records are lost whole, never as a torn mix. (A round none of whose
// records were flushed is legitimately gone.)
func holds(at place, want int) step {
	return func(s *script) error {
		count := 0
		if p, ok := s.pipeline(at); ok {
			count = p.Count()
		} else if want > 0 {
			s.violate("node %d lost in-flight round %d", s.at(at).NodeID, s.round)
		}
		s.expectCount(fmt.Sprintf("node %d round %d count", s.at(at).NodeID, s.round), count, want)
		return nil
	}
}

// sealedExact demands that node at's sealed pipeline for the round in play
// hold the full cohort and its exact sum, and reports what it found.
func (s *script) sealedExact(at place) (count int, exact bool) {
	p, ok := s.pipeline(at)
	if !ok {
		s.violate("round %d vanished from node %d", s.round, s.at(at).NodeID)
		return 0, false
	}
	s.expectCount(fmt.Sprintf("round %d cohort", s.round), p.Count(), s.t.devices)
	return p.Count(), s.expectExact(fmt.Sprintf("round %d aggregate", s.round), p.Sum(), s.expectedSum())
}

// sealSrc names an encoded partial seal for the round in play: node at's
// signed export declaring the given shard count (how many partials
// complete the merge), or an adversary's variant of it.
type sealSrc struct {
	at     place
	shards uint32
	// flip flips the last byte of the signature.
	flip bool
	// resignAs, when non-zero, re-attributes the seal to that node identity
	// and re-signs it — the adversary who controls a valid key but claims
	// coverage (or a slot) that is not theirs.
	resignAs uint32
}

func sealOf(at place, shards uint32) sealSrc  { return sealSrc{at: at, shards: shards} }
func flipped(src sealSrc) sealSrc             { src.flip = true; return src }
func resigned(src sealSrc, id uint32) sealSrc { src.resignAs = id; return src }

type sealRef struct {
	node   uint32
	round  uint64
	shards uint32
}

// sealBytes renders src. A node's export is produced once and replayed as
// the same bytes.
func (s *script) sealBytes(src sealSrc) ([]byte, error) {
	n := s.at(src.at)
	ref := sealRef{n.NodeID, s.round, src.shards}
	raw, err := s.seals[ref], error(nil)
	if raw == nil {
		raw, err = n.manager(s.t).ExportPartialSeal(s.round, service.NodeSeal{
			NodeID:      n.NodeID,
			ShardCount:  src.shards,
			Measurement: tee.Measurement{0xFE, byte(n.NodeID)},
			Key:         n.SealKey,
		})
		if err != nil {
			return nil, fmt.Errorf("sim: round %d node %d seal: %w", s.round, n.NodeID, err)
		}
		s.seals[ref] = raw
	}
	if src.resignAs != 0 {
		if s.advKey == nil {
			if s.advKey, err = xcrypto.NewSigningKey(); err != nil {
				return nil, err
			}
		}
		seal, err := wire.DecodePartialSeal(raw)
		if err != nil {
			return nil, err
		}
		der, err := s.advKey.Public().Marshal()
		if err != nil {
			return nil, err
		}
		meas := tee.Measurement{byte(src.resignAs)}
		seal.NodeID, seal.NodeKey, seal.Measurement = src.resignAs, der, meas[:]
		if seal.Signature, err = s.advKey.Sign(seal.SignedBytes()); err != nil {
			return nil, err
		}
		raw = wire.EncodePartialSeal(seal)
	}
	if src.flip {
		raw = flipLastByte(raw)
	}
	return raw, nil
}

// merge hands a genuine seal to the coordinator, which must absorb it.
func merge(src sealSrc) step {
	return func(s *script) error {
		raw, err := s.sealBytes(src)
		if err != nil {
			return err
		}
		if _, err := s.hub.MergePartialSeal(raw); err != nil {
			s.violate("round %d: coordinator refused a genuine seal: %v", s.round, err)
		}
		return nil
	}
}

// refuse hands a forged, stale, replayed, overlapping or late seal to the
// coordinator, which must turn it away with want, leaving the merge
// undisturbed.
func refuse(src sealSrc, want error, label string) step {
	return func(s *script) error {
		_, err := s.refuseSeal(src, want, label)
		return err
	}
}

func (s *script) refuseSeal(src sealSrc, want error, label string) (bool, error) {
	raw, err := s.sealBytes(src)
	if err != nil {
		return false, err
	}
	s.refusedSeals++
	if _, err := s.hub.MergePartialSeal(raw); !errors.Is(err, want) {
		s.violate("round %d %s: got %v, want %v", s.round, label, err, want)
		return false, nil
	}
	return true, nil
}

// merged checks the completed merge of the round in play against the
// round's exact single-node sum, its full cohort, and the refusals its
// nodes booked (which travel in their seals), and records it.
func merged(wantRejected uint64) step {
	return func(s *script) error {
		m, ok := s.hub.Lookup(s.t.name, s.round)
		if !ok || !m.Complete() {
			s.violate("round %d: merge missing or incomplete", s.round)
			return nil
		}
		s.expectExact(fmt.Sprintf("round %d merged sum", s.round), m.Sum(), s.expectedSum())
		res := m.Result()
		s.expectCount(fmt.Sprintf("round %d merged cohort", s.round), int(res.Count), s.t.devices)
		s.expectCount(fmt.Sprintf("round %d merged rejected", s.round), int(res.Rejected), int(wantRejected))
		s.mergedRounds++
		s.mergedContribs += res.Count
		s.sumDigests[s.round] = m.Sum().Digest()
		return nil
	}
}
