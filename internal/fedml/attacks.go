package fedml

import (
	"fmt"
	"sort"

	"glimmers/internal/fixed"
)

// InvertModel is the Figure 1b privacy attack: given a user's local partial
// model, recover the bigrams the user typed. For the strawman model this is
// direct — any nonzero weight is a typed bigram — which is exactly why the
// paper says partial models "can still reveal information about the raw
// inputs" even though raw keystrokes were never shared.
//
// It returns the model dimensions with the k largest nonzero weights.
func InvertModel(m *Model, k int) []int {
	type wd struct {
		dim int
		w   fixed.Ring
	}
	var nz []wd
	for dim, w := range m.Weights {
		if w != 0 {
			nz = append(nz, wd{dim, w})
		}
	}
	sort.Slice(nz, func(i, j int) bool {
		if nz[i].w != nz[j].w {
			return int64(nz[i].w) > int64(nz[j].w)
		}
		return nz[i].dim < nz[j].dim
	})
	if k > len(nz) {
		k = len(nz)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = nz[i].dim
	}
	return out
}

// InversionRecall scores an inversion attack: the fraction of the user's
// actual distinct bigrams the attacker recovered.
func InversionRecall(recovered []int, truth map[int]bool) float64 {
	if len(truth) == 0 {
		return 0
	}
	hits := 0
	for _, dim := range recovered {
		if truth[dim] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}

// Poison implements the Figure 1d attack: overwrite one model weight with
// an illegal value (the paper's example sets 538 where [0,1] is valid),
// inflating the target bigram in the aggregate beyond what any honest
// population could produce.
func Poison(m *Model, prev, next string, value float64) error {
	dim, err := m.vocab.BigramIndex(prev, next)
	if err != nil {
		return fmt.Errorf("fedml: poison: %w", err)
	}
	m.Weights[dim] = fixed.FromFloat(value)
	return nil
}

// SuggestionSkew quantifies poisoning damage: for the given cue word, it
// reports the aggregate weight of the attacker's target continuation in the
// clean and poisoned global models. A successful attack drives the poisoned
// weight far above every honest weight, flipping the service's suggestion.
type SuggestionSkew struct {
	Cue         string
	Target      string
	CleanW      float64
	PoisonedW   float64
	CleanTop    string
	PoisonedTop string
	// PoisonedTopW is the weight behind PoisonedTop; it equals PoisonedW
	// once the attack lands.
	PoisonedTopW float64
	// Flipped reports whether poisoning changed the top suggestion to the
	// attacker's target.
	Flipped bool
}

// MeasureSkew compares clean and poisoned global models for a cue word.
func MeasureSkew(clean, poisoned *Model, cue, target string) (SuggestionSkew, error) {
	dim, err := clean.vocab.BigramIndex(cue, target)
	if err != nil {
		return SuggestionSkew{}, err
	}
	cleanTop, _, err := clean.Predict(cue)
	if err != nil {
		return SuggestionSkew{}, err
	}
	poisonedTop, poisonedTopW, err := poisoned.Predict(cue)
	if err != nil {
		return SuggestionSkew{}, err
	}
	return SuggestionSkew{
		Cue:          cue,
		Target:       target,
		CleanW:       clean.Weights[dim].Float(),
		PoisonedW:    poisoned.Weights[dim].Float(),
		CleanTop:     cleanTop,
		PoisonedTop:  poisonedTop,
		PoisonedTopW: poisonedTopW,
		Flipped:      poisonedTop == target && cleanTop != target,
	}, nil
}
