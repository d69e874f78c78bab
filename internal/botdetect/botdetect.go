// Package botdetect implements the §4.1 scenario: distinguishing humans
// from bots using behavioural signals collected on the client — signals too
// privacy-sensitive to ship to the service (they embed typing cadence,
// mouse paths, focus habits). A Glimmer runs the detector locally over the
// private signals and releases exactly one bit.
//
// The package provides synthetic trace generators for humans and bots of
// varying sophistication, the feature extraction a JavaScript collector
// would perform, and the detector compiled to a validation predicate.
package botdetect

import (
	"math"
	"sort"

	"glimmers/internal/predicate"
	"glimmers/internal/xcrypto"
)

// EventKind classifies one UI event.
type EventKind byte

// UI event kinds a collector observes.
const (
	KindKey EventKind = iota
	KindMouse
	KindFocus
	KindScroll
)

// Event is one observed UI interaction.
type Event struct {
	TimeMs int64
	Kind   EventKind
	// X, Y locate mouse events.
	X, Y int64
}

// Trace is a session of UI events — private data that never leaves the
// client.
type Trace []Event

// HumanTrace synthesizes a human session: irregular inter-event gaps with
// bursts and pauses, curved mouse paths, occasional focus changes.
func HumanTrace(prg *xcrypto.PRG, n int) Trace {
	tr := make(Trace, 0, n)
	timeMs := int64(0)
	x, y := int64(500), int64(400)
	heading := prg.Float64() * 2 * math.Pi
	for i := 0; i < n; i++ {
		// Humans: noisy gaps, long-tail pauses.
		gap := int64(120 + 160*prg.Float64() + 90*math.Abs(prg.NormFloat64()))
		if prg.Float64() < 0.06 {
			gap += int64(800 + prg.Intn(2200)) // reading pause
		}
		timeMs += gap
		switch r := prg.Float64(); {
		case r < 0.45:
			tr = append(tr, Event{TimeMs: timeMs, Kind: KindKey})
		case r < 0.85:
			// Curved mouse movement: heading drifts each step.
			heading += (prg.Float64() - 0.5) * 1.2
			x += int64(18 * math.Cos(heading))
			y += int64(18 * math.Sin(heading))
			tr = append(tr, Event{TimeMs: timeMs, Kind: KindMouse, X: x, Y: y})
		case r < 0.93:
			tr = append(tr, Event{TimeMs: timeMs, Kind: KindScroll})
		default:
			tr = append(tr, Event{TimeMs: timeMs, Kind: KindFocus})
		}
	}
	return tr
}

// BotTrace synthesizes a bot session. Sophistication in [0,1] interpolates
// from a naive metronomic script (0) toward human-mimicking jitter (1);
// the detector's job gets harder as it rises — the adversary-cost axis of
// experiment E8.
func BotTrace(prg *xcrypto.PRG, n int, sophistication float64) Trace {
	if sophistication < 0 {
		sophistication = 0
	}
	if sophistication > 1 {
		sophistication = 1
	}
	tr := make(Trace, 0, n)
	timeMs := int64(0)
	x, y := int64(100), int64(100)
	heading := 0.45 // straight-line sweep
	for i := 0; i < n; i++ {
		// Bots: near-constant gaps, plus sophistication-scaled jitter.
		gap := int64(100 + 4*prg.Float64() + sophistication*(150*prg.Float64()+80*math.Abs(prg.NormFloat64())))
		if sophistication > 0 && prg.Float64() < 0.05*sophistication {
			gap += int64(1000 * prg.Float64())
		}
		timeMs += gap
		switch r := prg.Float64(); {
		case r < 0.5:
			tr = append(tr, Event{TimeMs: timeMs, Kind: KindKey})
		default:
			heading += (prg.Float64() - 0.5) * 1.2 * sophistication
			x += int64(18 * math.Cos(heading))
			y += int64(18 * math.Sin(heading))
			tr = append(tr, Event{TimeMs: timeMs, Kind: KindMouse, X: x, Y: y})
		}
	}
	return tr
}

// Feature indices in the extracted signal vector.
const (
	FeatGapStd     = iota // standard deviation of inter-event gaps (ms)
	FeatGapEntropy        // entropy of the gap histogram (millibits)
	FeatCurvature         // mean absolute mouse heading change (milliradians)
	FeatFocus             // focus-change count
	FeatBurstiness        // p90/p50 gap ratio (percent)
	NumFeatures
)

// Features extracts the private signal vector a collector computes from a
// trace. All features are integers so they feed the predicate VM directly.
func Features(tr Trace) []int64 {
	out := make([]int64, NumFeatures)
	if len(tr) < 3 {
		return out
	}
	gaps := make([]float64, 0, len(tr)-1)
	for i := 1; i < len(tr); i++ {
		gaps = append(gaps, float64(tr[i].TimeMs-tr[i-1].TimeMs))
	}
	// Gap standard deviation.
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	var variance float64
	for _, g := range gaps {
		variance += (g - mean) * (g - mean)
	}
	variance /= float64(len(gaps))
	out[FeatGapStd] = int64(math.Sqrt(variance))

	// Gap entropy over logarithmic buckets.
	buckets := make(map[int]int)
	for _, g := range gaps {
		b := int(math.Log2(g + 1))
		buckets[b]++
	}
	var entropy float64
	for _, c := range buckets {
		p := float64(c) / float64(len(gaps))
		entropy -= p * math.Log2(p)
	}
	out[FeatGapEntropy] = int64(entropy * 1000)

	// Mouse path curvature.
	var prevHeading float64
	var haveHeading bool
	var curveSum float64
	var curveN int
	var lastX, lastY int64
	var haveLast bool
	for _, e := range tr {
		if e.Kind != KindMouse {
			continue
		}
		if haveLast {
			h := math.Atan2(float64(e.Y-lastY), float64(e.X-lastX))
			if haveHeading {
				d := math.Abs(h - prevHeading)
				if d > math.Pi {
					d = 2*math.Pi - d
				}
				curveSum += d
				curveN++
			}
			prevHeading, haveHeading = h, true
		}
		lastX, lastY, haveLast = e.X, e.Y, true
	}
	if curveN > 0 {
		out[FeatCurvature] = int64(curveSum / float64(curveN) * 1000)
	}

	// Focus changes.
	for _, e := range tr {
		if e.Kind == KindFocus {
			out[FeatFocus]++
		}
	}

	// Burstiness: p90/p50 gap ratio.
	sorted := append([]float64(nil), gaps...)
	sort.Float64s(sorted)
	p50 := sorted[len(sorted)/2]
	p90 := sorted[len(sorted)*9/10]
	if p50 > 0 {
		out[FeatBurstiness] = int64(p90 / p50 * 100)
	}
	return out
}

// Detector thresholds: a trace is human when a majority of indicators fire.
// These are the service's (possibly confidential, §4.1) detector
// parameters.
type Detector struct {
	MinGapStd     int64
	MinGapEntropy int64
	MinCurvature  int64
	MinFocus      int64
	MinBurstiness int64
	MinIndicators int64
}

// DefaultDetector is tuned against the synthetic generators: it separates
// naive bots from humans with high margin and degrades gracefully as bot
// sophistication rises.
var DefaultDetector = Detector{
	MinGapStd:     120,
	MinGapEntropy: 1500,
	MinCurvature:  150,
	MinFocus:      1,
	MinBurstiness: 160,
	MinIndicators: 3,
}

// Predicate compiles the detector into a validation predicate over the
// private signal bank: indicator votes are summed branch-free and the
// verdict is 1 (human) when at least MinIndicators fire. The compiled
// program passes the static verifier with a single declassification site,
// so a Glimmer will install it — even delivered confidentially.
func (d Detector) Predicate(name string) *predicate.Program {
	b := predicate.NewBuilder(name, 1)
	b.Push(0).Store(0)
	indicator := func(feature int, min int64) {
		b.LoadP(feature).Push(min).Ge().Load(0).Add().Store(0)
	}
	indicator(FeatGapStd, d.MinGapStd)
	indicator(FeatGapEntropy, d.MinGapEntropy)
	indicator(FeatCurvature, d.MinCurvature)
	indicator(FeatFocus, d.MinFocus)
	indicator(FeatBurstiness, d.MinBurstiness)
	b.Load(0).Push(d.MinIndicators).Ge()
	b.LenP().Push(int64(NumFeatures)).Eq().And()
	b.Declass().Verdict()
	return b.MustBuild()
}

// Classify runs the detector natively (reference implementation used to
// validate the predicate compilation and in accuracy sweeps).
func (d Detector) Classify(features []int64) bool {
	if len(features) != NumFeatures {
		return false
	}
	votes := int64(0)
	if features[FeatGapStd] >= d.MinGapStd {
		votes++
	}
	if features[FeatGapEntropy] >= d.MinGapEntropy {
		votes++
	}
	if features[FeatCurvature] >= d.MinCurvature {
		votes++
	}
	if features[FeatFocus] >= d.MinFocus {
		votes++
	}
	if features[FeatBurstiness] >= d.MinBurstiness {
		votes++
	}
	return votes >= d.MinIndicators
}
