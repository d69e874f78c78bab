package predicate

import "glimmers/internal/fixed"

// The standard predicate library: the validators the paper's scenarios
// need, written branch-free over secrets so they pass the information-flow
// verifier. All of them follow the same shape — fold a boolean accumulator
// over the inputs, declassify once, emit the verdict.

// RangeCheck builds the paper's canonical validator: every element of a
// dim-length contribution must lie in [lo, hi]. This is the predicate that
// blocks Figure 1d's adversarial weight of 538 when the valid range is the
// fixed-point encoding of [0, 1].
func RangeCheck(name string, dim int, lo, hi int64) *Program {
	b := NewBuilder(name, 1)
	b.Push(1).Store(0)
	// Length must match exactly; a short or padded vector is invalid.
	b.LenC().Push(int64(dim)).Eq().Load(0).And().Store(0)
	b.Loop(int64(dim), func(b *Builder) {
		b.Idx(0).LoadCI() // v
		b.Dup()
		b.Push(lo).Ge() // v, v>=lo
		b.Swap()
		b.Push(hi).Le() // v>=lo, v<=hi
		b.And()
		b.Load(0).And().Store(0)
	})
	b.Load(0).Declass().Verdict()
	return b.MustBuild()
}

// UnitRangeCheck is RangeCheck specialized to the fixed-point encoding of
// [0, 1] — the valid range for the paper's model weights.
func UnitRangeCheck(name string, dim int) *Program {
	return RangeCheck(name, dim, 0, fixed.Scale)
}

// SumBound builds a validator checking that the sum of the contribution
// lies in [lo, hi]: a mass-conservation check (e.g. a probability row must
// not sum far above 1 even if each element is individually legal).
func SumBound(name string, dim int, lo, hi int64) *Program {
	b := NewBuilder(name, 1)
	b.Push(0).Store(0)
	b.Loop(int64(dim), func(b *Builder) {
		b.Idx(0).LoadCI().Load(0).Add().Store(0)
	})
	b.Load(0).Push(lo).Ge()
	b.Load(0).Push(hi).Le()
	b.And()
	// Also require the expected dimension.
	b.LenC().Push(int64(dim)).Eq().And()
	b.Declass().Verdict()
	return b.MustBuild()
}

// CrossCheck builds a corroboration validator: for every element i of the
// dim-length contribution, the matching element of the private validation
// data (e.g. a locally observed count or measurement) must be within
// tolerance of it. This is the simplest form of the paper's "more invasive"
// validation — checking the contribution against private context the
// service never sees.
func CrossCheck(name string, dim int, tolerance int64) *Program {
	b := NewBuilder(name, 1)
	b.Push(1).Store(0)
	b.LenC().Push(int64(dim)).Eq().Load(0).And().Store(0)
	b.LenP().Push(int64(dim)).Eq().Load(0).And().Store(0)
	b.Loop(int64(dim), func(b *Builder) {
		b.Idx(0).LoadCI() // claimed
		b.Idx(0).LoadPI() // observed
		b.Sub().Abs()
		b.Push(tolerance).Le()
		b.Load(0).And().Store(0)
	})
	b.Load(0).Declass().Verdict()
	return b.MustBuild()
}

// ThresholdScore builds a weighted-sum classifier over the private bank: it
// computes sum(private[i] * weight[i]) and returns 1 when the score is at
// least threshold. This is the §4.1 bot-detector shape: the signal vector is
// private, the weights and threshold are the (possibly confidential)
// detector parameters, and exactly one bit comes out.
func ThresholdScore(name string, weights []int64, threshold int64) *Program {
	b := NewBuilder(name, 1)
	b.Push(0).Store(0)
	for i, w := range weights {
		b.LoadP(i).Push(w).Mul().Load(0).Add().Store(0)
	}
	b.Load(0).Push(threshold).Ge()
	// Length check: reject vectors with unexpected extra signals.
	b.LenP().Push(int64(len(weights))).Eq().And()
	b.Declass().Verdict()
	return b.MustBuild()
}

// AlwaysValid returns a trivially accepting predicate, the "no validation"
// baseline configuration (Figure 1c without a Glimmer check).
func AlwaysValid(name string) *Program {
	return NewBuilder(name, 0).Push(1).Declass().Verdict().MustBuild()
}
