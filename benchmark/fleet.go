package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

// fleetShape sizes fleet-signed: three node stacks and a merge
// coordinator, live ECDSA-signed contributions routed by the ring, every
// round sealed on its owner, exported as a signed partial, merged over
// the wire.
type fleetShape struct {
	dim        int
	nodes      int
	devices    int // per generator
	frameItems int
	rounds     int // rounds of a count-based run
}

func (s fleetShape) framesPerRound() int { return s.devices / s.frameItems }

func fleetSignedShape(smoke bool) fleetShape {
	if smoke {
		return fleetShape{dim: 64, nodes: 3, devices: 16, frameItems: 8, rounds: 12}
	}
	return fleetShape{dim: 64, nodes: 3, devices: 128, frameItems: 32, rounds: 1500}
}

// fleetGen is one generator's own equipment.
type fleetGen struct {
	devices []*glimmer.Device
	fc      *gaas.FleetClient
	coord   *gaas.Client
}

type fleetWorld struct {
	ledger
	cfg       *runConfig
	shape     fleetShape
	tr        *trustRoot
	nodes     map[uint32]*node
	coord     *running
	gens      []*fleetGen
	times     setupTimes
	nextRound atomic.Int64 // rounds only ever increase: MergeHub never forgets one
	dir       string
}

func buildFleet(cfg *runConfig, shape fleetShape) (world, error) {
	w := &fleetWorld{cfg: cfg, shape: shape, nodes: map[uint32]*node{}}
	if err := w.setup(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *fleetWorld) setup() (err error) {
	cfg, shape := w.cfg, w.shape
	if w.dir, err = os.MkdirTemp(cfg.stateRoot, cfg.workload+"-"); err != nil {
		return err
	}
	if w.tr, err = newTrustRoot(shape.dim); err != nil {
		return err
	}
	var peers []gaas.FleetNode
	for id := uint32(1); id <= uint32(shape.nodes); id++ {
		n, err := w.tr.startNode(nodeOpts{id: id, dir: filepath.Join(w.dir, fmt.Sprintf("node-%d", id))})
		if err != nil {
			return err
		}
		w.nodes[id] = n
		peers = append(peers, gaas.FleetNode{ID: id, Addr: n.addr()})
	}
	if w.coord, err = startMerger(&service.MergeHub{AllowTOFU: true}); err != nil {
		return err
	}
	for g := 0; g < generators(); g++ {
		gen := new(fleetGen)
		w.gens = append(w.gens, gen)
		platform, err := tee.NewPlatform(w.tr.as)
		if err != nil {
			return err
		}
		for d := 0; d < shape.devices; d++ {
			t0 := time.Now()
			dev, err := w.tr.newDevice(platform)
			if err != nil {
				return err
			}
			w.times.provision.add(time.Since(t0))
			gen.devices = append(gen.devices, dev)
		}
		if gen.fc, err = gaas.DialFleet(context.Background(), gaas.FleetConfig{Nodes: peers, Dial: dialConfig()}); err != nil {
			return err
		}
		if gen.coord, err = dial(w.coord.addr()); err != nil {
			return err
		}
	}
	// Warm-up: a few rounds per generator, enough to touch every node.
	warm, err := w.pass(limit{rounds: 4 * len(w.gens)}, nil)
	if err != nil {
		return err
	}
	if warm.sum(func(r *recorder) int64 { return r.failed }) != 0 {
		return fmt.Errorf("%s: warm-up failed its output checks", cfg.workload)
	}
	return nil
}

// pass runs the closed loop: each generator's devices contribute live
// into the generator's own round, frames go through the ring-routing
// fleet client, and the round's result is the coordinator's merged sum.
func (w *fleetWorld) pass(lim limit, hook *layerHook) (*window, error) {
	G := len(w.gens)
	if hook != nil {
		G = 1
	}
	s := w.shape
	recs := make([]*recorder, G)
	for g := range recs {
		recs[g] = newRecorder(lim.frameCap(s.framesPerRound(), G, 2000), lim.roundCap(G), 0)
	}
	// Four rounds to a segment of the rate: a fleet round is ~13 ms.
	win, err := measure(recs, s.frameItems, 4*s.framesPerRound(), func(g int, rec *recorder, start time.Time) error {
		gen := w.gens[g]
		raws := make([][]byte, 0, s.frameItems)
		no := 0
		ecalls := gen.ecalls()
		defer func() { rec.times.ecalls += gen.ecalls() - ecalls }()
		for done := 0; !lim.over(done, g, G); done++ {
			// A round's inputs are a function of the seed and the round,
			// whichever generator drives it.
			round := uint64(w.nextRound.Add(1))
			rng := w.cfg.rng(round)
			ref := fixed.NewVector(s.dim)
			var lastAck time.Time
			for lo := 0; lo < s.devices; lo += s.frameItems {
				raws = raws[:0]
				for _, dev := range gen.devices[lo : lo+s.frameItems] {
					t0 := time.Now()
					sc, err := dev.Contribute(round, unitVector(rng, s.dim), nil)
					if err != nil {
						return fmt.Errorf("round %d: %w", round, err)
					}
					raws = append(raws, glimmer.EncodeSignedContribution(sc))
					rec.times.contribute.add(time.Since(t0))
					rec.times.contribs++
					ref.AddInPlace(sc.Blinded)
				}
				var accepted, rejected int
				var err error
				t0 := time.Now()
				err = hook.submit(no, raws, func() (int, error) {
					accepted, rejected, err = gen.fc.SubmitBatch(raws)
					return accepted, err
				})
				lastAck = time.Now()
				if err != nil {
					return fmt.Errorf("round %d: %w", round, err)
				}
				no++
				rec.frame(t0, lastAck, start)
				if accepted != len(raws) || rejected != 0 {
					rec.fail("round %d: tallies (%d, %d), want (%d, 0)", round, accepted, rejected, len(raws))
				}
			}
			if err := w.finishRound(gen, round, ref, s.devices, lastAck, rec, hook); err != nil {
				return err
			}
			if err := hook.roundDone(round); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.tally(win)
	return win, nil
}

func (g *fleetGen) ecalls() (n uint64) {
	for _, dev := range g.devices {
		n += dev.Stats().ECalls
	}
	return n
}

// finishRound is the end of a fleet round: the owner seals and signs its
// partial, the coordinator merges it, and the merged sum comes back and is
// compared with the reference.
func (w *fleetWorld) finishRound(gen *fleetGen, round uint64, ref fixed.Vector, want int,
	lastAck time.Time, rec *recorder, hook *layerHook) error {
	owner := w.nodes[gen.fc.Ring().Owner([]byte(serviceName), round)]
	if err := owner.manager.Seal(round); err != nil {
		return err
	}
	p, _ := owner.manager.Lookup(round)
	if err := hook.sealed(owner, round, p.Sum()); err != nil {
		return err
	}
	seal, err := owner.manager.ExportPartialSeal(round, owner.seal)
	if err != nil {
		return err
	}
	merged, err := gen.coord.MergePartialSeal(seal)
	if err != nil {
		return fmt.Errorf("round %d merge: %w", round, err)
	}
	sum := make(fixed.Vector, len(merged.Sum))
	for i, lane := range merged.Sum {
		sum[i] = fixed.Ring(lane)
	}
	ok := merged.Merged == merged.Expect && merged.Count == uint64(want) && sameVector(sum, ref)
	push(&rec.resultNS, int64(time.Since(lastAck)))
	rec.rounds++
	if ok {
		rec.accepted += int64(merged.Count)
		rec.verified(sum)
	} else {
		rec.fail("round %d: merged %d/%d partials, sum %s over %d, want %s over %d",
			round, merged.Merged, merged.Expect, sum.Digest(), merged.Count, ref.Digest(), want)
	}
	rec.rejected += int64(p.Rejected())
	owner.finish(round)
	return nil
}

func (w *fleetWorld) close() {
	for _, gen := range w.gens {
		if gen.fc != nil {
			gen.fc.Close()
		}
		if gen.coord != nil {
			gen.coord.Close()
		}
		for _, dev := range gen.devices {
			dev.Destroy()
		}
	}
	if w.coord != nil {
		w.coord.Close()
	}
	for _, n := range w.nodes {
		n.stop()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
