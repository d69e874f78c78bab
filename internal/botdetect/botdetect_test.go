package botdetect

import (
	"fmt"
	"testing"

	"glimmers/internal/predicate"
	"glimmers/internal/xcrypto"
)

func traces(seed string, n, events int, human bool, sophistication float64) []Trace {
	prg := xcrypto.NewPRG([]byte(seed))
	out := make([]Trace, n)
	for i := range out {
		if human {
			out[i] = HumanTrace(prg, events)
		} else {
			out[i] = BotTrace(prg, events, sophistication)
		}
	}
	return out
}

func TestTraceShapes(t *testing.T) {
	prg := xcrypto.NewPRG([]byte("shape"))
	h := HumanTrace(prg, 200)
	if len(h) != 200 {
		t.Fatalf("human trace length %d", len(h))
	}
	last := int64(-1)
	for _, e := range h {
		if e.TimeMs <= last {
			t.Fatal("human timestamps not strictly increasing")
		}
		last = e.TimeMs
	}
	b := BotTrace(prg, 200, 0)
	if len(b) != 200 {
		t.Fatalf("bot trace length %d", len(b))
	}
}

func TestFeaturesSeparateNaiveBots(t *testing.T) {
	prg := xcrypto.NewPRG([]byte("sep"))
	hf := Features(HumanTrace(prg, 300))
	bf := Features(BotTrace(prg, 300, 0))
	if hf[FeatGapStd] <= bf[FeatGapStd] {
		t.Errorf("human gap std %d should exceed bot %d", hf[FeatGapStd], bf[FeatGapStd])
	}
	if hf[FeatGapEntropy] <= bf[FeatGapEntropy] {
		t.Errorf("human entropy %d should exceed bot %d", hf[FeatGapEntropy], bf[FeatGapEntropy])
	}
	if hf[FeatFocus] == 0 {
		t.Error("human trace has no focus changes")
	}
}

func TestFeaturesShortTrace(t *testing.T) {
	f := Features(Trace{{TimeMs: 1, Kind: KindKey}})
	for i, v := range f {
		if v != 0 {
			t.Fatalf("short trace feature %d = %d, want 0", i, v)
		}
	}
	if len(f) != NumFeatures {
		t.Fatalf("feature count %d", len(f))
	}
}

// humanRate is the share of traces DefaultDetector classifies human: the
// true-positive rate over humans, the false-positive rate over bots.
func humanRate(traces []Trace) float64 {
	hits := 0
	for _, tr := range traces {
		if DefaultDetector.Classify(Features(tr)) {
			hits++
		}
	}
	return float64(hits) / float64(len(traces))
}

func TestDetectorAccuracyOnNaiveBots(t *testing.T) {
	humans := traces("h", 100, 300, true, 0)
	bots := traces("b", 100, 300, false, 0)
	tpr, fpr := humanRate(humans), humanRate(bots)
	if tpr < 0.95 {
		t.Errorf("TPR = %.2f, want >= 0.95", tpr)
	}
	if fpr > 0.05 {
		t.Errorf("FPR = %.2f, want <= 0.05", fpr)
	}
}

func TestDetectorDegradesGracefully(t *testing.T) {
	// As sophistication rises, the adversary's evasion rate should rise —
	// the paper's point that more invasive validation raises adversary
	// cost, not that it is impossible to fool.
	var prevEvasion float64 = -1
	for _, s := range []float64{0, 0.5, 1.0} {
		bots := traces(fmt.Sprintf("b-%v", s), 60, 300, false, s)
		fpr := humanRate(bots)
		if fpr < prevEvasion-0.15 {
			t.Errorf("evasion rate dropped sharply at sophistication %v: %.2f -> %.2f", s, prevEvasion, fpr)
		}
		prevEvasion = fpr
	}
}

func TestPredicateMatchesNativeClassifier(t *testing.T) {
	prog := DefaultDetector.Predicate("bot-detector")
	if _, err := predicate.Verify(prog); err != nil {
		t.Fatalf("detector predicate fails verification: %v", err)
	}
	prg := xcrypto.NewPRG([]byte("cmp"))
	for i := 0; i < 50; i++ {
		var tr Trace
		if i%2 == 0 {
			tr = HumanTrace(prg, 250)
		} else {
			tr = BotTrace(prg, 250, float64(i%5)/5)
		}
		features := Features(tr)
		want := DefaultDetector.Classify(features)
		res, err := predicate.Run(prog, nil, features, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Verdict != 0) != want {
			t.Fatalf("sample %d: predicate %d, native %v (features %v)", i, res.Verdict, want, features)
		}
	}
}

func TestPredicateHasSingleDeclassSite(t *testing.T) {
	prog := DefaultDetector.Predicate("d")
	analysis, err := predicate.Verify(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(analysis.DeclassSites) != 1 {
		t.Fatalf("declass sites = %d, want 1 (the single verdict bit)", len(analysis.DeclassSites))
	}
	if !analysis.ReadsPrivate || analysis.ReadsContribution {
		t.Fatal("detector should read only the private bank")
	}
}

func TestClassifyRejectsPaddedFeatureVector(t *testing.T) {
	padded := make([]int64, NumFeatures+1)
	if DefaultDetector.Classify(padded) {
		t.Fatal("padded feature vector accepted")
	}
	// The predicate enforces the same length check.
	res, err := predicate.Run(DefaultDetector.Predicate("d"), nil, padded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != 0 {
		t.Fatal("predicate accepted padded feature vector")
	}
}

func TestBotSophisticationClamped(t *testing.T) {
	prg := xcrypto.NewPRG([]byte("clamp"))
	// Out-of-range sophistication must not panic.
	if tr := BotTrace(prg, 50, -3); len(tr) != 50 {
		t.Fatal("negative sophistication broke generation")
	}
	if tr := BotTrace(prg, 50, 9); len(tr) != 50 {
		t.Fatal("huge sophistication broke generation")
	}
}
