package main

import (
	"fmt"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
)

// ledger keeps, over every pass since set-up began, what the refusal
// reconciliation needs: Pipeline.Rejected counters die with Forget, so
// they are read before it and summed here.
type ledger struct {
	pipelineRejected int64
	planted          int64
}

func (l *ledger) tally(win *window) {
	l.pipelineRejected += win.sum(func(r *recorder) int64 { return r.rejected })
	l.planted += win.sum(func(r *recorder) int64 { return r.planted })
}

func (l *ledger) tallies() (int64, int64) { return l.pipelineRejected, l.planted }

// probeRound is where an edge workload's probe sessions contribute: past
// the pool's rounds, inside the admission window.
func (w *edgeWorld) probeRound() uint64 { return uint64(w.shape.poolRounds + 1) }

// probeSessions on an edge workload: n new users join the warm, idle
// service one at a time, into a round of their own that is then sealed
// and checked like any other.
func (w *edgeWorld) probeSessions(n int) ([]float64, error) {
	platform, err := tee.NewPlatform(w.tr.as)
	if err != nil {
		return nil, err
	}
	rng := w.cfg.rng(1 << 33)
	rec := newRecorder(0, 1, n)
	ref := fixed.NewVector(w.shape.dim)
	var times setupTimes
	for i := 0; i < n; i++ {
		t0 := time.Now()
		blinded, _, err := ticketedSession(w.tr, platform, w.node.addr(), w.probeRound(),
			unitVector(rng, w.shape.dim), &times, nil, i)
		if err != nil {
			return nil, fmt.Errorf("probe session %d: %w", i, err)
		}
		push(&rec.unitNS, int64(time.Since(t0)))
		ref.AddInPlace(blinded)
	}
	if err := sealAndCheck(w.node, w.probeRound(), ref, n, time.Now(), rec, nil); err != nil {
		return nil, err
	}
	if rec.failed != 0 {
		return nil, fmt.Errorf("probe sessions: sealed sum is wrong")
	}
	return (&window{recs: []*recorder{rec}}).merged(func(r *recorder) []int64 { return r.unitNS }), nil
}

func (w *edgeWorld) fixedRounds() int  { return w.shape.cycles * w.shape.poolRounds }
func (w *edgeWorld) measured() []*node { return []*node{w.node} }

func (w *edgeWorld) glimmerTimes(*window) *setupTimes { return &w.times }

func (w *edgeWorld) newHook(dir string) (*layerHook, error) {
	return newLayerHook(w.cfg, w.tr, w.node, 0, w.shape.frameItems, false, dir)
}

// probeSessions: device-session needs no probe, its window is sessions.
func (w *sessionWorld) probeSessions(int) ([]float64, error) { return nil, nil }

func (w *sessionWorld) fixedRounds() int  { return w.shape.rounds }
func (w *sessionWorld) measured() []*node { return []*node{w.node} }

func (w *sessionWorld) glimmerTimes(win *window) *setupTimes {
	var t setupTimes
	for _, r := range win.recs {
		t.merge(&r.times)
	}
	return &t
}

func (w *sessionWorld) newHook(dir string) (*layerHook, error) {
	return newLayerHook(w.cfg, w.tr, w.node, w.shape.maxTickets, 1, true, dir)
}

// probeSessions on fleet-signed: a new user provisions a device, dials
// the round's owner, signs one contribution and submits it; the round is
// then sealed, exported and merged like any other.
func (w *fleetWorld) probeSessions(n int) ([]float64, error) {
	platform, err := tee.NewPlatform(w.tr.as)
	if err != nil {
		return nil, err
	}
	gen := w.gens[0]
	rng := w.cfg.rng(1 << 33)
	round := uint64(w.nextRound.Add(1))
	owner := w.nodes[gen.fc.Ring().Owner([]byte(serviceName), round)]
	ref := fixed.NewVector(w.shape.dim)
	var ns []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		dev, err := w.tr.newDevice(platform)
		if err != nil {
			return nil, err
		}
		client, err := dial(owner.addr())
		if err != nil {
			return nil, err
		}
		sc, err := dev.Contribute(round, unitVector(rng, w.shape.dim), nil)
		if err != nil {
			return nil, err
		}
		accepted, rejected, err := client.SubmitBatch([][]byte{glimmer.EncodeSignedContribution(sc)})
		client.Close()
		dev.Destroy()
		if err != nil || accepted != 1 || rejected != 0 {
			return nil, fmt.Errorf("probe session %d: tallies (%d, %d): %v", i, accepted, rejected, err)
		}
		ns = append(ns, float64(time.Since(t0)))
		ref.AddInPlace(sc.Blinded)
	}
	rec := newRecorder(0, 1, 0)
	if err := w.finishRound(gen, round, ref, n, time.Now(), rec, nil); err != nil {
		return nil, err
	}
	if rec.failed != 0 {
		return nil, fmt.Errorf("probe sessions: merged sum is wrong")
	}
	return ns, nil
}

func (w *fleetWorld) fixedRounds() int { return w.shape.rounds }

func (w *fleetWorld) measured() []*node {
	var nodes []*node
	for id := uint32(1); id <= uint32(len(w.nodes)); id++ {
		nodes = append(nodes, w.nodes[id])
	}
	return nodes
}

func (w *fleetWorld) glimmerTimes(win *window) *setupTimes {
	t := setupTimes{provision: w.times.provision}
	for _, r := range win.recs {
		t.merge(&r.times)
	}
	return &t
}

func (w *fleetWorld) newHook(dir string) (*layerHook, error) {
	return newLayerHook(w.cfg, w.tr, w.nodes[1], 0, w.shape.frameItems, false, dir)
}
