package keyboard

import (
	"testing"
	"testing/quick"

	"glimmers/internal/fixed"
)

func testVocab(t *testing.T) *Vocabulary {
	t.Helper()
	v, err := NewVocabulary([]string{"a", "b", "c", "d"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVocabularyBasics(t *testing.T) {
	v := testVocab(t)
	if v.Size() != 4 || v.Dims() != 16 {
		t.Fatalf("Size/Dims = %d/%d", v.Size(), v.Dims())
	}
	i, ok := v.Index("c")
	if !ok || i != 2 {
		t.Fatalf("Index(c) = %d, %v", i, ok)
	}
	if _, ok := v.Index("zebra"); ok {
		t.Fatal("unknown word found")
	}
	if v.Word(1) != "b" {
		t.Fatalf("Word(1) = %q", v.Word(1))
	}
}

func TestVocabularyRejectsDuplicates(t *testing.T) {
	if _, err := NewVocabulary([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if _, err := NewVocabulary(nil); err == nil {
		t.Fatal("empty vocabulary accepted")
	}
}

func TestBigramIndexRoundTrip(t *testing.T) {
	v := testVocab(t)
	for _, prev := range []string{"a", "b", "c", "d"} {
		for _, next := range []string{"a", "b", "c", "d"} {
			dim, err := v.BigramIndex(prev, next)
			if err != nil {
				t.Fatal(err)
			}
			gotPrev, gotNext := v.Bigram(dim)
			if gotPrev != prev || gotNext != next {
				t.Fatalf("round trip (%s,%s) -> dim %d -> (%s,%s)", prev, next, dim, gotPrev, gotNext)
			}
		}
	}
	if _, err := v.BigramIndex("zebra", "a"); err == nil {
		t.Fatal("unknown prev accepted")
	}
	if _, err := v.BigramIndex("a", "zebra"); err == nil {
		t.Fatal("unknown next accepted")
	}
}

func TestBigramCounts(t *testing.T) {
	v := testVocab(t)
	a := Activity{{0, "a"}, {300, "b"}, {600, "a"}, {900, "b"}, {1200, "c"}}
	counts := a.BigramCounts(v)
	ab, _ := v.BigramIndex("a", "b")
	ba, _ := v.BigramIndex("b", "a")
	bc, _ := v.BigramIndex("b", "c")
	if counts[ab] != 2 || counts[ba] != 1 || counts[bc] != 1 {
		t.Fatalf("counts: ab=%d ba=%d bc=%d", counts[ab], counts[ba], counts[bc])
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 4 {
		t.Fatalf("total transitions %d, want 4", total)
	}
}

func TestDistinctBigrams(t *testing.T) {
	v := testVocab(t)
	a := Activity{{0, "a"}, {1, "b"}, {2, "a"}, {3, "b"}}
	distinct := a.DistinctBigrams(v)
	if len(distinct) != 2 {
		t.Fatalf("distinct = %d, want 2 (ab, ba)", len(distinct))
	}
}

func TestWeightsFromCountsRowNormalized(t *testing.T) {
	v := testVocab(t)
	counts := make([]int64, v.Dims())
	ab, _ := v.BigramIndex("a", "b")
	ac, _ := v.BigramIndex("a", "c")
	counts[ab] = 3
	counts[ac] = 1
	w := WeightsFromCounts(counts, v)
	if got := fixed.Ring(w[ab]).Float(); got < 0.74 || got > 0.76 {
		t.Fatalf("w[ab] = %v, want 0.75", got)
	}
	if got := fixed.Ring(w[ac]).Float(); got < 0.24 || got > 0.26 {
		t.Fatalf("w[ac] = %v, want 0.25", got)
	}
	// Row "b" has no observations: all zero, not NaN garbage.
	ba, _ := v.BigramIndex("b", "a")
	if w[ba] != 0 {
		t.Fatalf("unobserved row nonzero: %d", w[ba])
	}
}

func TestCorpusRowsAreStochastic(t *testing.T) {
	v := testVocab(t)
	c := NewCorpus(v, []byte("s"))
	for p := 0; p < v.Size(); p++ {
		var sum float64
		for n, pr := range c.trans[p] {
			if pr < 0 {
				t.Fatalf("negative probability at (%d,%d)", p, n)
			}
			sum += pr
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("row %d sums to %v", p, sum)
		}
	}
}

func TestBoostRaisesProbability(t *testing.T) {
	v := testVocab(t)
	c := NewCorpus(v, []byte("s"))
	a, _ := v.Index("a")
	b, _ := v.Index("b")
	before := c.trans[a][b]
	if err := c.Boost("a", "b", 20); err != nil {
		t.Fatal(err)
	}
	if after := c.trans[a][b]; after <= before {
		t.Fatalf("boost did not raise probability: %v -> %v", before, after)
	}
	// Row still stochastic.
	var sum float64
	for _, pr := range c.trans[a] {
		sum += pr
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("boosted row sums to %v", sum)
	}
	if err := c.Boost("zebra", "b", 2); err == nil {
		t.Fatal("unknown word accepted")
	}
}

func TestGenerateActivityShape(t *testing.T) {
	v := testVocab(t)
	c := NewCorpus(v, []byte("s"))
	a := c.GenerateActivity([]byte("u1"), 100)
	if len(a) != 100 {
		t.Fatalf("activity length %d", len(a))
	}
	last := int64(-1)
	for _, e := range a {
		if e.TimeMs <= last {
			t.Fatal("timestamps not strictly increasing")
		}
		last = e.TimeMs
		if _, ok := v.Index(e.Word); !ok {
			t.Fatalf("unknown word %q generated", e.Word)
		}
	}
	// Deterministic per seed.
	b := c.GenerateActivity([]byte("u1"), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different activity")
		}
	}
	other := c.GenerateActivity([]byte("u2"), 100)
	same := 0
	for i := range a {
		if a[i].Word == other[i].Word {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical activity")
	}
}

func TestTrendingScenario(t *testing.T) {
	pop, err := TrendingScenario([]byte("exp"), 24, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Users) != 24 {
		t.Fatalf("users = %d", len(pop.Users))
	}
	top := pop.TopBigrams(12)
	found := false
	for _, bg := range top {
		if bg == "donald trump" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trending bigram not in top-12: %v", top)
	}
}

func TestCorroborationWeightsMatchTraining(t *testing.T) {
	pop, err := TrendingScenario([]byte("c"), 2, 200)
	if err != nil {
		t.Fatal(err)
	}
	v := pop.Corpus.Vocabulary()
	a := pop.Users[0].Activity
	w1 := CorroborationWeights(a, v)
	w2 := WeightsFromCounts(a.BigramCounts(v), v)
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("corroboration weights diverge from training weights")
		}
	}
}

// Property: generated activity never leaves the vocabulary and bigram
// counts total exactly len(activity)-1.
func TestQuickActivityWellFormed(t *testing.T) {
	v := testVocab(t)
	c := NewCorpus(v, []byte("q"))
	f := func(seed []byte, nRaw uint8) bool {
		n := int(nRaw%64) + 2
		a := c.GenerateActivity(seed, n)
		if len(a) != n {
			return false
		}
		var total int64
		for _, cnt := range a.BigramCounts(v) {
			total += cnt
		}
		return total == int64(n-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: weights from counts always lie in [0, 1] fixed-point.
func TestQuickWeightsInUnitRange(t *testing.T) {
	v := testVocab(t)
	f := func(raw [16]uint8) bool {
		counts := make([]int64, 16)
		for i, r := range raw {
			counts[i] = int64(r)
		}
		for _, w := range WeightsFromCounts(counts, v) {
			if !fixed.Ring(w).InUnitRange() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
