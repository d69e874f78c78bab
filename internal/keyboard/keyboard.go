// Package keyboard simulates the user population behind the paper's running
// example: a predictive-keyboard service learning next-word suggestions
// from what users type (Figure 1).
//
// Real keystroke data is deeply private and unavailable; what the
// experiments need from it is distributional structure — a shared
// vocabulary, per-user habits, population-wide trends ("Donald" → "Trump"
// rising as many users type it in a short time span), and timestamped
// activity that a validator can use to corroborate claimed model updates
// (the NAB-style validation of §3). This package synthesizes exactly that.
package keyboard

import (
	"fmt"
	"sort"

	"glimmers/internal/fixed"
	"glimmers/internal/xcrypto"
)

// Vocabulary is the closed word set of the simulation. Bigram (prev, next)
// pairs index model dimensions as prev*Size()+next.
type Vocabulary struct {
	words []string
	index map[string]int
}

// NewVocabulary builds a vocabulary from distinct words.
func NewVocabulary(words []string) (*Vocabulary, error) {
	v := &Vocabulary{words: append([]string(nil), words...), index: make(map[string]int, len(words))}
	for i, w := range words {
		if _, dup := v.index[w]; dup {
			return nil, fmt.Errorf("keyboard: duplicate word %q", w)
		}
		v.index[w] = i
	}
	if len(v.words) == 0 {
		return nil, fmt.Errorf("keyboard: empty vocabulary")
	}
	return v, nil
}

// Size returns the number of words.
func (v *Vocabulary) Size() int { return len(v.words) }

// Dims returns the bigram-model dimension, Size squared.
func (v *Vocabulary) Dims() int { return len(v.words) * len(v.words) }

// Word returns the word at index i.
func (v *Vocabulary) Word(i int) string { return v.words[i] }

// Index returns a word's position.
func (v *Vocabulary) Index(w string) (int, bool) {
	i, ok := v.index[w]
	return i, ok
}

// BigramIndex returns the model dimension for the ordered pair.
func (v *Vocabulary) BigramIndex(prev, next string) (int, error) {
	p, ok := v.index[prev]
	if !ok {
		return 0, fmt.Errorf("keyboard: unknown word %q", prev)
	}
	n, ok := v.index[next]
	if !ok {
		return 0, fmt.Errorf("keyboard: unknown word %q", next)
	}
	return p*len(v.words) + n, nil
}

// Bigram decodes a model dimension back to its word pair.
func (v *Vocabulary) Bigram(dim int) (prev, next string) {
	return v.words[dim/len(v.words)], v.words[dim%len(v.words)]
}

// Event is one committed word with its timestamp.
type Event struct {
	TimeMs int64
	Word   string
}

// Activity is a user's private typing log: the raw data that must never
// reach the service.
type Activity []Event

// BigramCounts tallies ordered word pairs in the activity over the
// vocabulary; the result is the sufficient statistic local training uses.
func (a Activity) BigramCounts(v *Vocabulary) []int64 {
	counts := make([]int64, v.Dims())
	for i := 1; i < len(a); i++ {
		dim, err := v.BigramIndex(a[i-1].Word, a[i].Word)
		if err != nil {
			continue // words outside the vocabulary carry no signal
		}
		counts[dim]++
	}
	return counts
}

// DistinctBigrams returns the set of bigram dimensions the user actually
// typed — the ground truth a model-inversion attacker tries to recover.
func (a Activity) DistinctBigrams(v *Vocabulary) map[int]bool {
	out := make(map[int]bool)
	for i := 1; i < len(a); i++ {
		if dim, err := v.BigramIndex(a[i-1].Word, a[i].Word); err == nil {
			out[dim] = true
		}
	}
	return out
}

// Corpus is the population-level language model activity is sampled from: a
// row-stochastic transition matrix over the vocabulary, optionally boosted
// by trends.
type Corpus struct {
	vocab *Vocabulary
	// trans[p][n] is the probability of word n following word p.
	trans [][]float64
}

// NewCorpus builds a corpus with a Zipf-flavoured random transition
// structure: a few continuations dominate each word, like natural text.
func NewCorpus(vocab *Vocabulary, seed []byte) *Corpus {
	prg := xcrypto.NewPRG(append([]byte("glimmers/keyboard/corpus/v1\x00"), seed...))
	n := vocab.Size()
	c := &Corpus{vocab: vocab, trans: make([][]float64, n)}
	for p := 0; p < n; p++ {
		row := make([]float64, n)
		// Zipf over a random preference order of continuations.
		perm := prg.Perm(n)
		var sum float64
		for rank, next := range perm {
			w := 1.0 / float64(rank+1)
			row[next] = w
			sum += w
		}
		for i := range row {
			row[i] /= sum
		}
		c.trans[p] = row
	}
	return c
}

// Vocabulary returns the corpus vocabulary.
func (c *Corpus) Vocabulary() *Vocabulary { return c.vocab }

// Boost multiplies the probability of the (from, to) transition by factor
// and renormalizes the row: how a trending phrase ("Donald" → "Trump")
// enters the population's typing.
func (c *Corpus) Boost(from, to string, factor float64) error {
	p, ok := c.vocab.Index(from)
	if !ok {
		return fmt.Errorf("keyboard: unknown word %q", from)
	}
	n, ok := c.vocab.Index(to)
	if !ok {
		return fmt.Errorf("keyboard: unknown word %q", to)
	}
	row := c.trans[p]
	row[n] *= factor
	var sum float64
	for _, w := range row {
		sum += w
	}
	for i := range row {
		row[i] /= sum
	}
	return nil
}

// GenerateActivity samples a user session of nWords from the corpus chain,
// with human-ish inter-word timing (lognormal-ish around ~350ms).
func (c *Corpus) GenerateActivity(userSeed []byte, nWords int) Activity {
	prg := xcrypto.NewPRG(append([]byte("glimmers/keyboard/user/v1\x00"), userSeed...))
	activity := make(Activity, 0, nWords)
	cur := prg.Intn(c.vocab.Size())
	timeMs := int64(0)
	for i := 0; i < nWords; i++ {
		// Advance the chain.
		r := prg.Float64()
		row := c.trans[cur]
		next := len(row) - 1
		acc := 0.0
		for j, w := range row {
			acc += w
			if r < acc {
				next = j
				break
			}
		}
		gap := 250 + int64(prg.Intn(200)) + int64(60*prg.NormFloat64())
		if gap < 80 {
			gap = 80
		}
		timeMs += gap
		activity = append(activity, Event{TimeMs: timeMs, Word: c.vocab.Word(next)})
		cur = next
	}
	return activity
}

// CorroborationWeights converts raw activity into the same fixed-point
// weight vector local training would produce — the private bank a
// CrossCheck predicate compares a claimed contribution against (the
// NAB-style validation of §3).
func CorroborationWeights(a Activity, v *Vocabulary) []int64 {
	return WeightsFromCounts(a.BigramCounts(v), v)
}

// WeightsFromCounts row-normalizes bigram counts into fixed-point
// conditional probabilities P(next | prev).
func WeightsFromCounts(counts []int64, v *Vocabulary) []int64 {
	n := v.Size()
	weights := make([]int64, v.Dims())
	for p := 0; p < n; p++ {
		var rowSum int64
		for next := 0; next < n; next++ {
			rowSum += counts[p*n+next]
		}
		if rowSum == 0 {
			continue
		}
		for next := 0; next < n; next++ {
			w := float64(counts[p*n+next]) / float64(rowSum)
			weights[p*n+next] = int64(fixed.FromFloat(w))
		}
	}
	return weights
}

// DefaultWords is the scenario vocabulary: the paper's example phrases plus
// filler words so trends have background to emerge from.
var DefaultWords = []string{
	"donald", "trump", "voting", "for", "dont", "like", "i", "am", "the",
	"world", "series", "game", "tonight", "watch", "news", "weather",
	"is", "nice", "today", "meeting", "at", "noon", "lunch", "plans",
	"see", "you", "soon", "thanks", "ok", "yes", "no", "maybe",
}

// Population is a set of simulated users sharing a corpus.
type Population struct {
	Corpus *Corpus
	Users  []User
}

// User is one simulated device owner.
type User struct {
	Name     string
	Activity Activity
}

// TrendingScenario builds the paper's Figure 1 world: nUsers users typing
// wordsPerUser words from a shared corpus in which "donald"→"trump" and
// "world"→"series" are trending.
func TrendingScenario(seed []byte, nUsers, wordsPerUser int) (*Population, error) {
	vocab, err := NewVocabulary(DefaultWords)
	if err != nil {
		return nil, err
	}
	corpus := NewCorpus(vocab, seed)
	if err := corpus.Boost("donald", "trump", 40); err != nil {
		return nil, err
	}
	if err := corpus.Boost("world", "series", 40); err != nil {
		return nil, err
	}
	if err := corpus.Boost("voting", "for", 25); err != nil {
		return nil, err
	}
	pop := &Population{Corpus: corpus}
	for i := 0; i < nUsers; i++ {
		name := fmt.Sprintf("user-%03d", i)
		userSeed := append(append([]byte(nil), seed...), byte(i), byte(i>>8))
		pop.Users = append(pop.Users, User{
			Name:     name,
			Activity: corpus.GenerateActivity(userSeed, wordsPerUser),
		})
	}
	return pop, nil
}

// TopBigrams returns the k most frequent bigrams across the population,
// a ground-truth view of what "trending" means in the experiment.
func (p *Population) TopBigrams(k int) []string {
	v := p.Corpus.Vocabulary()
	total := make([]int64, v.Dims())
	for _, u := range p.Users {
		for dim, c := range u.Activity.BigramCounts(v) {
			total[dim] += c
		}
	}
	type dimCount struct {
		dim   int
		count int64
	}
	all := make([]dimCount, 0, len(total))
	for dim, c := range total {
		if c > 0 {
			all = append(all, dimCount{dim, c})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].dim < all[j].dim
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		prev, next := v.Bigram(all[i].dim)
		out[i] = prev + " " + next
	}
	return out
}
