package sim

import (
	"fmt"
	"math/rand"

	"glimmers/internal/botdetect"
	"glimmers/internal/fixed"
	"glimmers/internal/xcrypto"
)

// The planning pass draws every workload decision — honest values, fault
// roles, injections — from one seeded generator before any concurrency
// starts. Execution then merely carries the plan out, so the simulated
// workload (and with it the accept/reject/sum trace) is a pure function of
// the configuration.

// role is a device's primary behaviour for one round.
type role int

const (
	roleHonest role = iota
	// roleDropout: silent for the round; its mask is in the dealer's reveal.
	roleDropout
	// roleByzantine: submits an out-of-range value the Glimmer refuses.
	roleByzantine
	// roleCorruptSig: its signed contribution is tampered in flight.
	roleCorruptSig
)

// devicePlan is one device's behaviour for one round.
type devicePlan struct {
	role role
	// straggler: the (honest) submission is withheld until the round
	// seals; beforeSeal says whether it arrives just before Seal or just
	// after.
	straggler  bool
	beforeSeal bool
	// value is the honest contribution (every element in the predicate's
	// accepted range; the fixed verdict vector for botdetect tenants).
	// Range-workload byzantine devices submit a corrupted copy.
	value fixed.Vector
	// private is the private validation bank the predicate inspects:
	// unused for the range workload, behavioural features for botdetect
	// (human features for honest devices, bot features for byzantine ones
	// — the bot session is what the detector refuses).
	private []int64

	// Injections: extra hostile traffic on top of the primary submission.
	// Only honest devices inject (a dropout is silent by definition).
	duplicate   bool
	replay      bool
	garbage     []byte // nil = no garbage injection
	outOfWindow bool
}

// roundPlan is the fleet's behaviour for one round.
type roundPlan struct {
	round uint64
	// bogusRound is the far-out-of-window round used by outOfWindow
	// injections during this round's step.
	bogusRound uint64
	devices    []devicePlan
}

type plan struct {
	rounds []roundPlan
}

// bogusRoundOffset puts out-of-window submissions past node.Hosting's
// 16-round admission window and inside the 1,024-round ticket window.
const bogusRoundOffset = 512

func buildPlan(cfg Config) *plan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Straggler sides come from their own stream, so drawing them moves no
	// other decision of the plan.
	sides := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_51de))
	p := &plan{rounds: make([]roundPlan, cfg.Rounds)}
	for r := 0; r < cfg.Rounds; r++ {
		round := uint64(r + 1)
		rp := roundPlan{
			round:      round,
			bogusRound: round + bogusRoundOffset,
			devices:    make([]devicePlan, cfg.Devices),
		}
		for d := 0; d < cfg.Devices; d++ {
			dp := &rp.devices[d]
			// Fixed draw order and count per device keeps the stream
			// aligned no matter which branches are taken.
			primary := rng.Float64()
			injDup, injReplay, injGarbage, injWindow := rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()
			dp.value = fixed.NewVector(cfg.Dim)
			for i := range dp.value {
				dp.value[i] = fixed.FromFloat(rng.Float64())
			}
			garbage := make([]byte, 24)
			for i := range garbage {
				garbage[i] = byte(rng.Intn(256))
			}

			f := cfg.Faults
			switch {
			case primary < f.DropoutRate:
				dp.role = roleDropout
			case primary < f.DropoutRate+f.ByzantineRate:
				dp.role = roleByzantine
			case primary < f.DropoutRate+f.ByzantineRate+f.CorruptSigRate:
				dp.role = roleCorruptSig
			default:
				dp.role = roleHonest
			}
			if dp.role == roleHonest {
				dp.duplicate = injDup < f.DuplicateRate
				// Replay needs an accepted contribution in the round that
				// is sealed during this step; resolved below once all
				// rounds are drawn.
				dp.replay = injReplay < f.ReplayRate
				if injGarbage < f.GarbageRate {
					dp.garbage = garbage
				}
				dp.outOfWindow = injWindow < f.OutOfWindowRate
			}
		}
		// The round-admission window anchors on rounds with at least two
		// accepted contributions, and dropout recovery needs surviving
		// honest devices: guarantee two honest, non-straggler devices by
		// converting excess faults back to honest (deterministically, in
		// device order).
		honest := 0
		for d := range rp.devices {
			if rp.devices[d].role == roleHonest {
				honest++
			}
		}
		for d := 0; d < cfg.Devices && honest < 2; d++ {
			if rp.devices[d].role != roleHonest {
				rp.devices[d] = devicePlan{role: roleHonest, value: rp.devices[d].value}
				honest++
			}
		}
		// Stragglers: the highest-indexed honest devices, always leaving
		// two prompt honest submitters. A straggler is held back until the
		// seal, so it does not also duplicate (the copy would be submitted
		// before its original).
		stragglers := cfg.Faults.Stragglers
		for d := cfg.Devices - 1; d >= 0 && stragglers > 0 && honest > 2; d-- {
			dp := &rp.devices[d]
			if dp.role == roleHonest {
				dp.straggler = true
				dp.beforeSeal = sides.Intn(2) == 0
				dp.duplicate = false
				stragglers--
				honest--
			}
		}
		if cfg.Workload == WorkloadBotdetect {
			// Every device contributes the fixed verdict vector; what varies
			// is the private session each brings. Byzantine devices are
			// bots, refused by the detector inside the enclave.
			for d := range rp.devices {
				dp := &rp.devices[d]
				dp.value = botdetect.VerdictContribution()
				dp.private = planFeatures(cfg.Seed, round, d, dp.role == roleByzantine)
			}
		}
		p.rounds[r] = rp
	}
	// Resolve replays: a replay at step r re-submits this device's
	// contribution from round r-Overlap (sealed, not yet closed, during
	// step r). It only exists if the device submitted promptly and
	// honestly in that round.
	for r := range p.rounds {
		targetIdx := r - cfg.Overlap
		for d := range p.rounds[r].devices {
			dp := &p.rounds[r].devices[d]
			if !dp.replay {
				continue
			}
			if targetIdx < 0 {
				dp.replay = false
				continue
			}
			src := p.rounds[targetIdx].devices[d]
			if src.role != roleHonest || src.straggler {
				dp.replay = false
			}
		}
	}
	return p
}

// byzantineValue corrupts an in-range value into one the predicate must
// refuse: the first element lands far above the unit range.
func byzantineValue(v fixed.Vector) fixed.Vector {
	out := v.Clone()
	out[0] = fixed.FromFloat(42.0)
	return out
}

// planFeatures draws one session's behavioural feature bank for the
// botdetect workload, deterministically from the simulation seed. The plan
// expects honest sessions to classify human and byzantine (bot) sessions
// to classify bot, so the draw retries with a fresh deterministic trace in
// the rare case a synthetic session lands on the detector's boundary — the
// expectation is then guaranteed, not merely probable.
func planFeatures(seed int64, round uint64, device int, bot bool) []int64 {
	for attempt := 0; ; attempt++ {
		prg := xcrypto.NewPRG(fmt.Appendf(nil, "sim/%d/trace/%d/%d/%d", seed, round, device, attempt))
		var features []int64
		if bot {
			features = botdetect.Features(botdetect.BotTrace(prg, 160, 0))
		} else {
			features = botdetect.Features(botdetect.HumanTrace(prg, 160))
		}
		if botdetect.DefaultDetector.Classify(features) == !bot {
			return features
		}
	}
}
