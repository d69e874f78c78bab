package fedml

import (
	"math"
	"testing"
	"testing/quick"

	"glimmers/internal/blind"
	"glimmers/internal/fixed"
	"glimmers/internal/keyboard"
)

func scenario(t *testing.T, users, words int) *keyboard.Population {
	t.Helper()
	pop, err := keyboard.TrendingScenario([]byte("fedml-test"), users, words)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestTrainLocalWeightsAreValidProbabilities(t *testing.T) {
	pop := scenario(t, 2, 300)
	v := pop.Corpus.Vocabulary()
	m := TrainLocal(pop.Users[0].Activity, v)
	if len(m.Weights) != v.Dims() {
		t.Fatalf("dims = %d", len(m.Weights))
	}
	for dim, w := range m.Weights {
		if !w.InUnitRange() {
			t.Fatalf("weight %d out of [0,1]: %v", dim, w)
		}
	}
	// Each observed row sums to ~1.
	n := v.Size()
	for p := 0; p < n; p++ {
		var sum float64
		for next := 0; next < n; next++ {
			sum += m.Weights[p*n+next].Float()
		}
		if sum > 0.01 && (sum < 0.98 || sum > 1.02) {
			t.Fatalf("row %d sums to %v", p, sum)
		}
	}
}

func TestAggregatePicksUpTrend(t *testing.T) {
	pop := scenario(t, 24, 500)
	v := pop.Corpus.Vocabulary()
	models := make([]*Model, len(pop.Users))
	for i, u := range pop.Users {
		models[i] = TrainLocal(u.Activity, v)
	}
	global, err := Aggregate(models...)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline behaviour: the global model suggests "trump"
	// after "donald" even for a user who never typed it.
	pred, w, err := global.Predict("donald")
	if err != nil {
		t.Fatal(err)
	}
	if pred != "trump" {
		t.Fatalf("Predict(donald) = %q (w=%v), want trump", pred, w)
	}
}

func TestAggregateMatchesBlindedAggregation(t *testing.T) {
	// Core Figure 1c equivalence: aggregating blinded vectors then
	// unmasking nothing (masks cancel) equals aggregating in the clear.
	pop := scenario(t, 6, 300)
	v := pop.Corpus.Vocabulary()
	models := make([]*Model, len(pop.Users))
	vecs := make([]fixed.Vector, len(pop.Users))
	for i, u := range pop.Users {
		models[i] = TrainLocal(u.Activity, v)
		vecs[i] = models[i].Weights
	}
	clear, err := Aggregate(models...)
	if err != nil {
		t.Fatal(err)
	}
	masks, err := blind.ZeroSumMasks([]byte("round"), len(vecs), v.Dims())
	if err != nil {
		t.Fatal(err)
	}
	blinded := make([]fixed.Vector, len(vecs))
	for i := range vecs {
		blinded[i], err = blind.Apply(vecs[i], masks[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	viaBlinding, err := fixed.Mean(blinded...)
	if err != nil {
		t.Fatal(err)
	}
	for dim := range clear.Weights {
		if clear.Weights[dim] != viaBlinding[dim] {
			t.Fatalf("blinded aggregation differs at dim %d", dim)
		}
	}
}

func TestPredictAndTopK(t *testing.T) {
	v := keyVocab(t)
	m := NewModel(v)
	set := func(prev, next string, w float64) {
		dim, err := v.BigramIndex(prev, next)
		if err != nil {
			t.Fatal(err)
		}
		m.Weights[dim] = fixed.FromFloat(w)
	}
	set("a", "b", 0.7)
	set("a", "c", 0.3)
	pred, w, err := m.Predict("a")
	if err != nil {
		t.Fatal(err)
	}
	if pred != "b" || math.Abs(w-0.7) > 0.001 {
		t.Fatalf("Predict = %q, %v", pred, w)
	}
	if _, _, err := m.Predict("zebra"); err == nil {
		t.Fatal("unknown word accepted")
	}
}

func keyVocab(t *testing.T) *keyboard.Vocabulary {
	t.Helper()
	v, err := keyboard.NewVocabulary([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestAccuracyImprovesWithData(t *testing.T) {
	pop := scenario(t, 20, 500)
	v := pop.Corpus.Vocabulary()
	heldout := pop.Corpus.GenerateActivity([]byte("heldout"), 2000)

	soloModel := TrainLocal(pop.Users[0].Activity, v)
	soloAcc := soloModel.Accuracy(heldout)

	models := make([]*Model, len(pop.Users))
	for i, u := range pop.Users {
		models[i] = TrainLocal(u.Activity, v)
	}
	global, err := Aggregate(models...)
	if err != nil {
		t.Fatal(err)
	}
	globalAcc := global.Accuracy(heldout)
	if globalAcc <= soloAcc-0.02 {
		t.Fatalf("federation did not help: solo %.3f vs global %.3f", soloAcc, globalAcc)
	}
	if globalAcc <= 0.05 {
		t.Fatalf("global accuracy implausibly low: %.3f", globalAcc)
	}
}

func TestInversionAttackRecoversTypedBigrams(t *testing.T) {
	// Figure 1b's privacy failure: the local model exposes what was typed.
	pop := scenario(t, 1, 400)
	v := pop.Corpus.Vocabulary()
	user := pop.Users[0]
	m := TrainLocal(user.Activity, v)
	truth := user.Activity.DistinctBigrams(v)
	recovered := InvertModel(m, v.Dims())
	recall := InversionRecall(recovered, truth)
	if recall < 0.999 {
		t.Fatalf("inversion recall = %v, want ~1.0 for the strawman model", recall)
	}
	// Restricted to top-k, the attacker still learns the user's most
	// frequent pairs.
	top10 := InvertModel(m, 10)
	if InversionRecall(top10, truth) <= 0 {
		t.Fatal("top-10 inversion recovered nothing")
	}
}

func TestInversionRecallEdgeCases(t *testing.T) {
	if InversionRecall([]int{1, 2}, nil) != 0 {
		t.Fatal("empty truth should score 0")
	}
	if InversionRecall(nil, map[int]bool{1: true}) != 0 {
		t.Fatal("empty recovery should score 0")
	}
}

func TestPoisoningSkewsUnprotectedAggregate(t *testing.T) {
	// Figure 1d end to end: one attacker out of N submits 538.
	pop := scenario(t, 12, 400)
	v := pop.Corpus.Vocabulary()
	models := make([]*Model, len(pop.Users))
	for i, u := range pop.Users {
		models[i] = TrainLocal(u.Activity, v)
	}
	clean, err := Aggregate(models...)
	if err != nil {
		t.Fatal(err)
	}
	// Attacker (user 0) wants "dont" suggested after "donald".
	if err := Poison(models[0], "donald", "dont", 538); err != nil {
		t.Fatal(err)
	}
	poisoned, err := Aggregate(models...)
	if err != nil {
		t.Fatal(err)
	}
	skew, err := MeasureSkew(clean, poisoned, "donald", "dont")
	if err != nil {
		t.Fatal(err)
	}
	if !skew.Flipped {
		t.Fatalf("poisoning did not flip the suggestion: %+v", skew)
	}
	if skew.PoisonedW < 1 {
		t.Fatalf("poisoned aggregate weight %v should exceed any honest weight", skew.PoisonedW)
	}
	if skew.CleanTop != "trump" {
		t.Fatalf("clean model should suggest trump, got %q", skew.CleanTop)
	}
}

func TestPoisonUnknownWords(t *testing.T) {
	pop := scenario(t, 1, 50)
	m := TrainLocal(pop.Users[0].Activity, pop.Corpus.Vocabulary())
	if err := Poison(m, "zebra", "trump", 538); err == nil {
		t.Fatal("unknown cue accepted")
	}
}

func TestFromWeightsValidation(t *testing.T) {
	v := keyVocab(t)
	if _, err := FromWeights(v, fixed.NewVector(5)); err == nil {
		t.Fatal("wrong dimension accepted")
	}
	w := fixed.NewVector(v.Dims())
	m, err := FromWeights(v, w)
	if err != nil {
		t.Fatal(err)
	}
	// FromWeights must copy.
	w[0] = 99
	if m.Weights[0] == 99 {
		t.Fatal("FromWeights aliases caller slice")
	}
}

func TestAggregateValidation(t *testing.T) {
	if _, err := Aggregate(); err == nil {
		t.Fatal("empty aggregate accepted")
	}
}

// Property: aggregation is permutation-invariant.
func TestQuickAggregateOrderInvariant(t *testing.T) {
	pop := scenario(t, 5, 100)
	v := pop.Corpus.Vocabulary()
	models := make([]*Model, len(pop.Users))
	for i, u := range pop.Users {
		models[i] = TrainLocal(u.Activity, v)
	}
	f := func(p0, p1 uint8) bool {
		order := []int{int(p0) % 5, int(p1) % 5}
		shuffled := append([]*Model(nil), models...)
		shuffled[order[0]], shuffled[order[1]] = shuffled[order[1]], shuffled[order[0]]
		a, err := Aggregate(models...)
		if err != nil {
			return false
		}
		b, err := Aggregate(shuffled...)
		if err != nil {
			return false
		}
		for d := range a.Weights {
			if a.Weights[d] != b.Weights[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a poisoned weight of magnitude w shifts the aggregate of n
// models by exactly w/n at that dimension (ring arithmetic is exact).
func TestQuickPoisonShiftExact(t *testing.T) {
	v := keyVocab(t)
	f := func(wRaw uint16, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		models := make([]*Model, n)
		for i := range models {
			models[i] = NewModel(v)
		}
		clean, err := Aggregate(models...)
		if err != nil {
			return false
		}
		value := float64(wRaw) / 100.0
		if err := Poison(models[0], "a", "b", value); err != nil {
			return false
		}
		poisoned, err := Aggregate(models...)
		if err != nil {
			return false
		}
		dim, _ := v.BigramIndex("a", "b")
		shift := poisoned.Weights[dim].Float() - clean.Weights[dim].Float()
		want := value / float64(n)
		return math.Abs(shift-want) < float64(n)/fixed.Scale+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
