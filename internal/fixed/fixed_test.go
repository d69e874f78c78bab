package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 0.1, 0.5, 0.9, 1.0, 538, 0.000001, 123.456}
	for _, v := range cases {
		got := FromFloat(v).Float()
		if math.Abs(got-v) > 1.0/Scale {
			t.Errorf("round trip %v -> %v, error > one unit", v, got)
		}
	}
}

func TestFromFloatNegative(t *testing.T) {
	v := -0.25
	got := FromFloat(v).Float()
	if math.Abs(got-v) > 1.0/Scale {
		t.Errorf("round trip %v -> %v", v, got)
	}
}

func TestInUnitRange(t *testing.T) {
	cases := []struct {
		v    float64
		want bool
	}{
		{0, true}, {0.5, true}, {1.0, true},
		{1.0 + 2.0/Scale, false}, {538, false}, {-0.1, false},
	}
	for _, c := range cases {
		if got := FromFloat(c.v).InUnitRange(); got != c.want {
			t.Errorf("InUnitRange(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestBlindingCancelsExactly(t *testing.T) {
	// The core ring property the whole design rests on: adding and removing
	// an arbitrary mask is the identity, even when intermediate values wrap.
	x := FromFloat(0.9)
	masks := []Ring{0, 1, Ring(1) << 63, ^Ring(0), 0xdeadbeefcafebabe}
	for _, m := range masks {
		if got := x + m - m; got != x {
			t.Errorf("mask %x did not cancel: %v != %v", uint64(m), got, x)
		}
	}
}

func TestZeroSumMasksCancelInAggregate(t *testing.T) {
	// Simulate Figure 1c: three clients, masks summing to zero, aggregate of
	// blinded values equals aggregate of true values exactly.
	xs := []Ring{FromFloat(0.9), FromFloat(0.1), FromFloat(0.8)}
	m1, m2 := Ring(0x1234567890abcdef), Ring(0xfedcba9876543210)
	m3 := -(m1 + m2)
	blinded := []Ring{xs[0] + m1, xs[1] + m2, xs[2] + m3}
	var trueSum, blindSum Ring
	for i := range xs {
		trueSum += xs[i]
		blindSum += blinded[i]
	}
	if trueSum != blindSum {
		t.Fatalf("blinded aggregate %v != true aggregate %v", blindSum, trueSum)
	}
}

func TestVectorAddSub(t *testing.T) {
	a := FromFloats([]float64{0.1, 0.2, 0.3})
	b := FromFloats([]float64{0.4, 0.5, 0.6})
	c := a.Clone()
	c.AddInPlace(b)
	c.SubInPlace(b)
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("add then sub not identity at %d", i)
		}
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVector(2).AddInPlace(NewVector(3))
}

func TestSum(t *testing.T) {
	a := FromFloats([]float64{0.1, 0.2})
	b := FromFloats([]float64{0.3, 0.4})
	sum, err := Sum(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.4, 0.6}
	for i, r := range sum {
		if f := r.Float(); math.Abs(f-want[i]) > 2.0/Scale {
			t.Errorf("sum[%d] = %v, want %v", i, f, want[i])
		}
	}
	if _, err := Sum(); err == nil {
		t.Error("Sum() of nothing should fail")
	}
	if _, err := Sum(a, NewVector(3)); err == nil {
		t.Error("Sum with mismatched lengths should fail")
	}
}

func TestMean(t *testing.T) {
	a := FromFloats([]float64{0.2, 1.0})
	b := FromFloats([]float64{0.4, 0.0})
	mean, err := Mean(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.3, 0.5}
	for i, r := range mean {
		if f := r.Float(); math.Abs(f-want[i]) > 2.0/Scale {
			t.Errorf("mean[%d] = %v, want %v", i, f, want[i])
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := FromFloats([]float64{0.5})
	b := a.Clone()
	b[0] = 0
	if a[0] == 0 {
		t.Fatal("clone aliases original")
	}
}

// Property: (x + m) - m == x for all x, m — blinding is always reversible.
func TestQuickMaskCancellation(t *testing.T) {
	f := func(x, m uint64) bool {
		r := Ring(x)
		return r+Ring(m)-Ring(m) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ring addition is commutative and associative — aggregation
// order never matters.
func TestQuickRingAdditionLaws(t *testing.T) {
	f := func(a, b, c uint64) bool {
		x, y, z := Ring(a), Ring(b), Ring(c)
		return x+y == y+x && (x+y)+z == x+(y+z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: encoding error is always below one fixed-point unit for values
// within the integer headroom.
func TestQuickEncodingError(t *testing.T) {
	f := func(raw uint32) bool {
		v := float64(raw) / float64(1<<16) // spans [0, 65536)
		return math.Abs(FromFloat(v).Float()-v) <= 1.0/Scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: vector sum of k copies of v decodes to k*v within k units.
func TestQuickRepeatedSum(t *testing.T) {
	f := func(raw uint16, kRaw uint8) bool {
		k := int(kRaw%16) + 1
		v := float64(raw) / float64(1<<16)
		vec := FromFloats([]float64{v})
		vs := make([]Vector, k)
		for i := range vs {
			vs[i] = vec
		}
		sum, err := Sum(vs...)
		if err != nil {
			return false
		}
		return math.Abs(sum[0].Float()-float64(k)*v) <= float64(k)/Scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
