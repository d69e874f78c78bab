package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
)

// edgeShape sizes a pooled, ticketed edge workload: rounds are generated
// once through real enclaves and then replayed, so the measured window
// exercises only the service side of the socket.
type edgeShape struct {
	dim        int
	devices    int
	values     int  // contributions per device per round
	frameItems int  // honest items per frame
	distinct   bool // true: a frame carries frameItems distinct tickets; false: one device's values
	poolRounds int
	plantEvery int // one frame in plantEvery carries a replay, another a forgery; 0 = none
	cycles     int // pool replays of a count-based run
}

func (s edgeShape) perRound() int       { return s.devices * s.values }
func (s edgeShape) framesPerRound() int { return s.perRound() / s.frameItems }

func edgeSteadyShape(smoke bool) edgeShape {
	if smoke {
		return edgeShape{dim: 256, devices: 64, values: 2, frameItems: 32, distinct: true, poolRounds: 4, cycles: 3}
	}
	return edgeShape{dim: 256, devices: 1024, values: 4, frameItems: 128, distinct: true, poolRounds: 4, cycles: 300}
}

func edgeSmallShape(smoke bool) edgeShape {
	if smoke {
		return edgeShape{dim: 8, devices: 128, values: 8, frameItems: 8, poolRounds: 4, plantEvery: 64, cycles: 3}
	}
	return edgeShape{dim: 8, devices: 1024, values: 8, frameItems: 8, poolRounds: 4, plantEvery: 64, cycles: 250}
}

// frame is one submit: the encoded contributions and the tallies the
// server must answer with.
type frame struct {
	raws         [][]byte
	wantAccepted int
	wantRejected int
}

// poolRound is one pre-sealed round: its frames and the reference sum —
// Σ of the Blinded vectors the enclaves returned.
type poolRound struct {
	round  uint64
	frames []frame
	ref    fixed.Vector
	want   int // accepted contributions per replay
}

// setupTimes are the glimmer-layer timings every set-up takes anyway.
type setupTimes struct {
	provision, ticket, grantRTT, contribute samples
	ecalls, contribs                        uint64
}

func (a *setupTimes) merge(b *setupTimes) {
	a.provision = append(a.provision, b.provision...)
	a.ticket = append(a.ticket, b.ticket...)
	a.grantRTT = append(a.grantRTT, b.grantRTT...)
	a.contribute = append(a.contribute, b.contribute...)
	a.ecalls += b.ecalls
	a.contribs += b.contribs
}

// edgeWorld is an assembled edge workload, warm and ready to measure.
type edgeWorld struct {
	ledger
	cfg     *runConfig
	shape   edgeShape
	tr      *trustRoot
	node    *node
	clients []*gaas.Client // one warm connection per generator
	pool    []poolRound
	times   setupTimes
	dir     string
}

// ticketedDevice provisions a device and runs the real grant exchange:
// TicketRequest → Client.RequestTicket → InstallTicket.
func ticketedDevice(tr *trustRoot, p *tee.Platform, client *gaas.Client, first, last uint64, t *setupTimes) (*glimmer.Device, error) {
	t0 := time.Now()
	dev, err := tr.newDevice(p)
	if err != nil {
		return nil, err
	}
	t.provision.add(time.Since(t0))
	t0 = time.Now()
	req, err := dev.TicketRequest(first, last)
	if err != nil {
		return nil, err
	}
	reqDone := time.Since(t0)
	t0 = time.Now()
	grant, err := client.RequestTicket(req)
	if err != nil {
		return nil, err
	}
	t.grantRTT.add(time.Since(t0))
	t0 = time.Now()
	if err := dev.InstallTicket(grant); err != nil {
		return nil, err
	}
	t.ticket.add(reqDone + time.Since(t0))
	return dev, nil
}

// contributeTicketed is one enclave contribution, encoded for the wire.
func contributeTicketed(dev *glimmer.Device, round uint64, v fixed.Vector, t *setupTimes) ([]byte, fixed.Vector, error) {
	t0 := time.Now()
	tc, err := dev.ContributeTicketed(round, v, nil)
	if err != nil {
		return nil, nil, err
	}
	raw := glimmer.EncodeTicketedContribution(tc)
	t.contribute.add(time.Since(t0))
	t.contribs++
	return raw, tc.Blinded, nil
}

// buildEdge assembles the stack, provisions and tickets every device,
// generates the pool, and warms the path with two full pool cycles.
func buildEdge(cfg *runConfig, shape edgeShape) (world, error) {
	w := &edgeWorld{cfg: cfg, shape: shape}
	if err := w.setup(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *edgeWorld) setup() (err error) {
	cfg, shape := w.cfg, w.shape
	if w.dir, err = os.MkdirTemp(cfg.stateRoot, cfg.workload+"-"); err != nil {
		return err
	}
	if w.tr, err = newTrustRoot(shape.dim); err != nil {
		return err
	}
	if w.node, err = w.tr.startNode(nodeOpts{dir: w.dir}); err != nil {
		return err
	}
	G := generators()
	for g := 0; g < G; g++ {
		c, err := dial(w.node.addr())
		if err != nil {
			return err
		}
		w.clients = append(w.clients, c)
	}

	// raws[r][d][v] and blinded sums per round, filled by G goroutines
	// that each own a contiguous slice of the devices (a Device is not
	// goroutine-safe).
	raws := make([][][][]byte, shape.poolRounds)
	for r := range raws {
		raws[r] = make([][][]byte, shape.devices)
	}
	refs := make([][]fixed.Vector, G) // refs[g][r]
	times := make([]setupTimes, G)
	errs := make([]error, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refs[g], errs[g] = w.generatePool(g, G, raws, &times[g])
		}()
	}
	wg.Wait()
	for g := 0; g < G; g++ {
		if errs[g] != nil {
			return errs[g]
		}
		w.times.merge(&times[g])
	}
	w.assemble(raws, refs)
	w.applyFault()

	// Warm-up: two pool cycles through the whole path, checked like the
	// measured ones.
	warm, err := w.pass(limit{rounds: 2 * shape.poolRounds}, nil)
	if err != nil {
		return err
	}
	if cfg.fault == "" && warm.sum(func(r *recorder) int64 { return r.failed }) != 0 {
		return fmt.Errorf("%s: warm-up failed its output checks", cfg.workload)
	}
	return nil
}

// generatePool provisions generator g's devices and has each enclave
// produce its contributions for every pool round.
func (w *edgeWorld) generatePool(g, G int, raws [][][][]byte, t *setupTimes) ([]fixed.Vector, error) {
	s := w.shape
	platform, err := tee.NewPlatform(w.tr.as)
	if err != nil {
		return nil, err
	}
	refs := make([]fixed.Vector, s.poolRounds)
	for r := range refs {
		refs[r] = fixed.NewVector(s.dim)
	}
	lo, hi := g*s.devices/G, (g+1)*s.devices/G
	for d := lo; d < hi; d++ {
		dev, err := ticketedDevice(w.tr, platform, w.clients[g], 1, uint64(s.poolRounds), t)
		if err != nil {
			return nil, fmt.Errorf("device %d: %w", d, err)
		}
		rng := w.cfg.rng(uint64(d))
		for r := 0; r < s.poolRounds; r++ {
			raws[r][d] = make([][]byte, s.values)
			for v := 0; v < s.values; v++ {
				raw, blinded, err := contributeTicketed(dev, uint64(r+1), unitVector(rng, s.dim), t)
				if err != nil {
					return nil, fmt.Errorf("device %d round %d: %w", d, r+1, err)
				}
				raws[r][d][v] = raw
				refs[r].AddInPlace(blinded)
				w.cfg.secret(raw)
			}
		}
		t.ecalls += dev.Stats().ECalls
		dev.Destroy()
	}
	return refs, nil
}

// assemble cuts each round into frames. A distinct-ticket frame takes one
// value from frameItems consecutive devices (relay traffic); otherwise a
// frame is one device's values (device-direct traffic).
func (w *edgeWorld) assemble(raws [][][][]byte, refs [][]fixed.Vector) {
	s := w.shape
	w.pool = make([]poolRound, s.poolRounds)
	for r := range w.pool {
		pr := &w.pool[r]
		pr.round, pr.want, pr.ref = uint64(r+1), s.perRound(), fixed.NewVector(s.dim)
		for g := range refs {
			pr.ref.AddInPlace(refs[g][r])
		}
		if s.distinct {
			for v := 0; v < s.values; v++ {
				for lo := 0; lo < s.devices; lo += s.frameItems {
					f := frame{wantAccepted: s.frameItems}
					for d := lo; d < lo+s.frameItems; d++ {
						f.raws = append(f.raws, raws[r][d][v])
					}
					pr.frames = append(pr.frames, f)
				}
			}
		} else {
			for d := 0; d < s.devices; d++ {
				pr.frames = append(pr.frames, frame{raws: raws[r][d], wantAccepted: s.values})
			}
		}
		if s.plantEvery > 0 {
			plant(pr, s.plantEvery)
		}
	}
}

// plant adds the refusals the server must count: one frame in every gives
// its first item twice (a replay), another carries a copy with a flipped
// MAC byte (a forgery). Neither is ever a round's first frame, so both
// are refused by the round's pipeline, not by round admission.
func plant(pr *poolRound, every int) {
	for i := range pr.frames {
		f := &pr.frames[i]
		switch i % every {
		case every / 8:
			f.raws = append(append([][]byte(nil), f.raws...), f.raws[0])
			f.wantRejected = 1
		case every/2 + every/8:
			forged := append([]byte(nil), f.raws[0]...)
			forged[len(forged)-1] ^= 0x80
			f.raws = append(append([][]byte(nil), f.raws...), forged)
			f.wantRejected = 1
		}
	}
}

// applyFault plants the negative control the run was asked for; each must
// make the output checks fail.
func (w *edgeWorld) applyFault() {
	pr := &w.pool[len(w.pool)-1]
	switch w.cfg.fault {
	case "flip":
		// One lane byte of one pooled contribution: its MAC no longer
		// verifies, so the frame's tallies are wrong.
		f := &pr.frames[len(pr.frames)/2]
		bad := append([]byte(nil), f.raws[0]...)
		bad[len(bad)/2] ^= 0x01
		f.raws = append([][]byte{bad}, f.raws[1:]...)
	case "drop":
		// One frame never sent: every tally is right, the sum is not.
		pr.frames = append(pr.frames[:1:1], pr.frames[2:]...)
	case "skew":
		pr.ref = pr.ref.Clone()
		pr.ref[0]++
	}
}

// pass runs the closed loop: generator g replays the pool rounds r with
// r mod G = g, each frame checked, each round sealed, compared with its
// reference sum, closed and forgotten.
func (w *edgeWorld) pass(lim limit, hook *layerHook) (*window, error) {
	G := len(w.clients)
	if hook != nil {
		G = 1
	}
	s := w.shape
	recs := make([]*recorder, G)
	for g := range recs {
		recs[g] = newRecorder(lim.frameCap(s.framesPerRound(), G, 480000/s.frameItems), lim.roundCap(G), 0)
	}
	win, err := measure(recs, s.frameItems, s.framesPerRound(), func(g int, rec *recorder, start time.Time) error {
		client := w.clients[g]
		frameNo := 0
		for i, done := g, 0; ; i, done = i+G, done+1 {
			if lim.over(done, g, G) {
				return nil
			}
			pr := &w.pool[i%len(w.pool)]
			var lastAck time.Time
			for fi := range pr.frames {
				f := &pr.frames[fi]
				var accepted, rejected int
				var err error
				t0 := time.Now()
				do := func() (int, error) {
					accepted, rejected, err = client.SubmitBatch(f.raws)
					return accepted, err
				}
				err = hook.submit(frameNo, f.raws, do)
				lastAck = time.Now()
				if err != nil {
					return fmt.Errorf("round %d frame %d: %w", pr.round, fi, err)
				}
				rec.frame(t0, lastAck, start)
				frameNo++
				rec.planted += int64(f.wantRejected)
				if accepted != f.wantAccepted || rejected != f.wantRejected {
					rec.fail("round %d frame %d: tallies (%d, %d), want (%d, %d)",
						pr.round, fi, accepted, rejected, f.wantAccepted, f.wantRejected)
				}
			}
			if err := sealAndCheck(w.node, pr.round, pr.ref, pr.want, lastAck, rec, hook); err != nil {
				return err
			}
			if err := hook.roundDone(pr.round); err != nil {
				return err
			}
		}
	})
	if err != nil {
		return nil, err
	}
	w.tally(win)
	return win, nil
}

func (w *edgeWorld) close() {
	for _, c := range w.clients {
		c.Close()
	}
	if w.node != nil {
		w.node.stop()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
