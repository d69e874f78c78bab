package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/tee"
)

// sessionShape sizes device-session: every unit of work is a whole new
// user — fresh enclave, provisioning, TLS dial, ticket grant, one
// contribution, one 1-item submit, close.
type sessionShape struct {
	dim        int
	perRound   int // sessions per sealed round
	maxTickets int // small, so soonest-expiry eviction runs in the window
	rounds     int // rounds of a count-based run
}

// maxTickets must hold more than a second of grants. Expiry has one-second
// resolution and ties evict the lowest ticket ID, so once the whole table
// was granted within one second a grant evicts a ticket at random — now
// and then the one a session in flight is about to use, which would be a
// failed operation. 2048 is about three seconds of grants on two cores;
// the smoke run is too short to fill a table that is safe, so it never
// evicts.
func deviceSessionShape(smoke bool) sessionShape {
	if smoke {
		return sessionShape{dim: 64, perRound: 16, maxTickets: 2048, rounds: 4}
	}
	return sessionShape{dim: 64, perRound: 256, maxTickets: 2048, rounds: 64}
}

// segmentSessions is the rate's segment on device-session: a round there
// lasts half a second, so a segment is 16 sessions (it divides the round;
// the seal that lands in one segment in 16 is under 1 % of it).
const segmentSessions = 16

type sessionWorld struct {
	ledger
	cfg       *runConfig
	shape     sessionShape
	tr        *trustRoot
	node      *node
	platforms []*tee.Platform // one client platform per generator
	nextRound atomic.Int64    // rounds only ever increase
	dir       string
}

// ticketedSession is what a new user pays, start to accepted contribution.
// It returns the blinded vector the enclave released and the submit's own
// round trip.
func ticketedSession(tr *trustRoot, p *tee.Platform, addr string, round uint64, v fixed.Vector,
	t *setupTimes, hook *layerHook, no int) (fixed.Vector, time.Duration, error) {
	client, err := dial(addr)
	if err != nil {
		return nil, 0, err
	}
	defer client.Close()
	dev, err := ticketedDevice(tr, p, client, round, round, t)
	if err != nil {
		return nil, 0, err
	}
	defer dev.Destroy()
	raw, blinded, err := contributeTicketed(dev, round, v, t)
	if err != nil {
		return nil, 0, err
	}
	t.ecalls += dev.Stats().ECalls
	var accepted, rejected int
	t0 := time.Now()
	raws := [][]byte{raw}
	if err := hook.submit(no, raws, func() (int, error) {
		accepted, rejected, err = client.SubmitBatch(raws)
		return accepted, err
	}); err != nil {
		return nil, 0, err
	}
	rtt := time.Since(t0)
	if accepted != 1 || rejected != 0 {
		return nil, rtt, fmt.Errorf("session submit tallied (%d, %d), want (1, 0)", accepted, rejected)
	}
	return blinded, rtt, nil
}

func buildSession(cfg *runConfig, shape sessionShape) (world, error) {
	w := &sessionWorld{cfg: cfg, shape: shape}
	if err := w.setup(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *sessionWorld) setup() (err error) {
	cfg, shape := w.cfg, w.shape
	if w.dir, err = os.MkdirTemp(cfg.stateRoot, cfg.workload+"-"); err != nil {
		return err
	}
	if w.tr, err = newTrustRoot(shape.dim); err != nil {
		return err
	}
	if w.node, err = w.tr.startNode(nodeOpts{dir: w.dir, maxTickets: shape.maxTickets}); err != nil {
		return err
	}
	for g := 0; g < generators(); g++ {
		p, err := tee.NewPlatform(w.tr.as)
		if err != nil {
			return err
		}
		w.platforms = append(w.platforms, p)
	}
	// Warm-up: one round per generator through the whole path.
	warm, err := w.pass(limit{rounds: len(w.platforms)}, nil)
	if err != nil {
		return err
	}
	if warm.sum(func(r *recorder) int64 { return r.failed }) != 0 {
		return fmt.Errorf("%s: warm-up failed its output checks", cfg.workload)
	}
	return nil
}

// pass runs the closed loop: each generator opens sessions one after
// another into its own round, seals it after perRound sessions, compares
// the sum with Σ of what its enclaves released, and moves to a new round.
func (w *sessionWorld) pass(lim limit, hook *layerHook) (*window, error) {
	G := len(w.platforms)
	if hook != nil {
		G = 1
	}
	s := w.shape
	recs := make([]*recorder, G)
	for g := range recs {
		frameCap := lim.frameCap(s.perRound, G, 4000)
		recs[g] = newRecorder(frameCap, lim.roundCap(G), frameCap)
	}
	win, err := measure(recs, 1, segmentSessions, func(g int, rec *recorder, start time.Time) error {
		times := &rec.times
		no := 0
		for done := 0; !lim.over(done, g, G); done++ {
			// A round's inputs are a function of the seed and the round,
			// whichever generator drives it.
			round := uint64(w.nextRound.Add(1))
			rng := w.cfg.rng(round)
			ref := fixed.NewVector(s.dim)
			var lastAck time.Time
			for i := 0; i < s.perRound; i++ {
				t0 := time.Now()
				blinded, rtt, err := ticketedSession(w.tr, w.platforms[g], w.node.addr(), round,
					unitVector(rng, s.dim), times, hook, no)
				lastAck = time.Now()
				if err != nil {
					return fmt.Errorf("round %d session %d: %w", round, i, err)
				}
				no++
				ref.AddInPlace(blinded)
				push(&rec.unitNS, int64(lastAck.Sub(t0)))
				rec.frame(lastAck.Add(-rtt), lastAck, start)
			}
			if err := sealAndCheck(w.node, round, ref, s.perRound, lastAck, rec, hook); err != nil {
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

func (w *sessionWorld) close() {
	if w.node != nil {
		w.node.stop()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
