// Package fedml implements the paper's strawman federated-learning system:
// a bigram next-word model whose weights are conditional probabilities in
// [0, 1], trained locally on each user's private typing activity and
// aggregated by the service (Figure 1b).
//
// It also implements both attacks the paper uses to motivate Glimmers:
//
//   - Model inversion (Figure 1b, citing Fredrikson et al. [4]): a local
//     partial model reveals which bigrams its user typed.
//   - Contribution poisoning (Figure 1d): a malicious user submits an
//     out-of-range weight (the famous 538 where [0,1] is legal) and skews
//     the aggregated global model; under blinding the service cannot see,
//     let alone reject, the poisoned value.
package fedml

import (
	"fmt"
	"math"

	"glimmers/internal/fixed"
	"glimmers/internal/keyboard"
)

// Model is a bigram next-word predictor: Weights[prev*V+next] is the
// fixed-point probability of next following prev.
type Model struct {
	vocab   *keyboard.Vocabulary
	Weights fixed.Vector
}

// NewModel returns a zero model over the vocabulary.
func NewModel(v *keyboard.Vocabulary) *Model {
	return &Model{vocab: v, Weights: fixed.NewVector(v.Dims())}
}

// FromWeights wraps an existing weight vector (e.g. an unblinded aggregate)
// as a model.
func FromWeights(v *keyboard.Vocabulary, w fixed.Vector) (*Model, error) {
	if len(w) != v.Dims() {
		return nil, fmt.Errorf("fedml: weight dim %d != vocab dims %d", len(w), v.Dims())
	}
	return &Model{vocab: v, Weights: w.Clone()}, nil
}

// TrainLocal builds a user's local partial model from private activity:
// row-normalized bigram counts, exactly the paper's strawman.
func TrainLocal(a keyboard.Activity, v *keyboard.Vocabulary) *Model {
	m := NewModel(v)
	for dim, w := range keyboard.WeightsFromCounts(a.BigramCounts(v), v) {
		m.Weights[dim] = fixed.Ring(w)
	}
	return m
}

// Aggregate computes the FedAvg global model: the element-wise mean of the
// local models. It is exact in the fixed-point ring, so it produces the
// same result whether the inputs arrive raw or blinded-then-unmasked.
func Aggregate(models ...*Model) (*Model, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("fedml: aggregate of zero models")
	}
	vecs := make([]fixed.Vector, len(models))
	for i, m := range models {
		vecs[i] = m.Weights
	}
	mean, err := fixed.Mean(vecs...)
	if err != nil {
		return nil, err
	}
	return &Model{vocab: models[0].vocab, Weights: mean}, nil
}

// Predict returns the most probable next word after prev and its weight.
func (m *Model) Predict(prev string) (string, float64, error) {
	p, ok := m.vocab.Index(prev)
	if !ok {
		return "", 0, fmt.Errorf("fedml: unknown word %q", prev)
	}
	n := m.vocab.Size()
	best, bestW := 0, math.Inf(-1)
	for next := 0; next < n; next++ {
		if w := m.Weights[p*n+next].Float(); w > bestW {
			best, bestW = next, w
		}
	}
	return m.vocab.Word(best), bestW, nil
}

// Accuracy measures next-word prediction accuracy over held-out activity:
// the fraction of events whose predecessor's top prediction matches.
func (m *Model) Accuracy(heldout keyboard.Activity) float64 {
	if len(heldout) < 2 {
		return 0
	}
	hits, total := 0, 0
	for i := 1; i < len(heldout); i++ {
		pred, _, err := m.Predict(heldout[i-1].Word)
		if err != nil {
			continue
		}
		total++
		if pred == heldout[i].Word {
			hits++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
