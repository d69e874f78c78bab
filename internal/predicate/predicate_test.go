package predicate

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"glimmers/internal/fixed"
)

// Len returns the number of recorded branch outcomes.
func (t *Trace) Len() int { return t.n }

// Equal reports whether two traces recorded identical branch behaviour.
func (t *Trace) Equal(other *Trace) bool {
	if t == nil || other == nil {
		return t == other
	}
	return t.n == other.n && bytes.Equal(t.bits, other.bits)
}

func mustRun(t *testing.T, p *Program, contribution, private []int64) *Result {
	t.Helper()
	res, err := Run(p, contribution, private, nil)
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name, err)
	}
	return res
}

func TestTrivialVerdict(t *testing.T) {
	p := NewBuilder("trivial", 0).Push(7).Declass().Verdict().MustBuild()
	if _, err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	res := mustRun(t, p, nil, nil)
	if res.Verdict != 7 {
		t.Fatalf("Verdict = %d, want 7", res.Verdict)
	}
}

func TestArithmeticOps(t *testing.T) {
	cases := []struct {
		name string
		emit func(*Builder) *Builder
		want int64
	}{
		{"add", func(b *Builder) *Builder { return b.Push(3).Push(4).Add() }, 7},
		{"sub", func(b *Builder) *Builder { return b.Push(3).Push(4).Sub() }, -1},
		{"mul", func(b *Builder) *Builder { return b.Push(3).Push(4).Mul() }, 12},
		{"div", func(b *Builder) *Builder { return b.Push(9).Push(4).Div() }, 2},
		{"mod", func(b *Builder) *Builder { return b.Push(9).Push(4).Mod() }, 1},
		{"neg", func(b *Builder) *Builder { return b.Push(3).Neg() }, -3},
		{"abs", func(b *Builder) *Builder { return b.Push(-3).Abs() }, 3},
		{"min", func(b *Builder) *Builder { return b.Push(3).Push(4).Min() }, 3},
		{"max", func(b *Builder) *Builder { return b.Push(3).Push(4).Max() }, 4},
		{"lt", func(b *Builder) *Builder { return b.Push(3).Push(4).Lt() }, 1},
		{"le", func(b *Builder) *Builder { return b.Push(4).Push(4).Le() }, 1},
		{"gt", func(b *Builder) *Builder { return b.Push(3).Push(4).Gt() }, 0},
		{"ge", func(b *Builder) *Builder { return b.Push(4).Push(4).Ge() }, 1},
		{"eq", func(b *Builder) *Builder { return b.Push(4).Push(4).Eq() }, 1},
		{"ne", func(b *Builder) *Builder { return b.Push(4).Push(4).Ne() }, 0},
		{"and", func(b *Builder) *Builder { return b.Push(2).Push(3).And() }, 1},
		{"and-zero", func(b *Builder) *Builder { return b.Push(2).Push(0).And() }, 0},
		{"or", func(b *Builder) *Builder { return b.Push(0).Push(3).Or() }, 1},
		{"not", func(b *Builder) *Builder { return b.Push(0).Not() }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.emit(NewBuilder(c.name, 0)).Declass().Verdict().MustBuild()
			if _, err := Verify(p); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if res := mustRun(t, p, nil, nil); res.Verdict != c.want {
				t.Fatalf("Verdict = %d, want %d", res.Verdict, c.want)
			}
		})
	}
}

func TestStackManipulation(t *testing.T) {
	// over: a b -> a b a ; then sub: a b-a? compute (a b a) sub -> a (b-a)
	p := NewBuilder("stack", 0).
		Push(10).Push(3). // 10 3
		Over().           // 10 3 10
		Sub().            // 10 -7
		Swap().           // -7 10
		Pop().            // -7
		Dup().Add().      // -14
		Declass().Verdict().MustBuild()
	if res := mustRun(t, p, nil, nil); res.Verdict != -14 {
		t.Fatalf("Verdict = %d, want -14", res.Verdict)
	}
}

func TestSelect(t *testing.T) {
	mk := func(cond int64) *Program {
		return NewBuilder("sel", 0).
			Push(111).Push(222).Push(cond).Select().
			Declass().Verdict().MustBuild()
	}
	if res := mustRun(t, mk(1), nil, nil); res.Verdict != 111 {
		t.Fatalf("select true = %d, want 111", res.Verdict)
	}
	if res := mustRun(t, mk(0), nil, nil); res.Verdict != 222 {
		t.Fatalf("select false = %d, want 222", res.Verdict)
	}
}

func TestLoopSemantics(t *testing.T) {
	// Sum of loop indices 0..9 = 45.
	p := NewBuilder("loopsum", 1)
	p.Push(0).Store(0)
	p.Loop(10, func(b *Builder) {
		b.Idx(0).Load(0).Add().Store(0)
	})
	prog := p.Load(0).Declass().Verdict().MustBuild()
	if _, err := Verify(prog); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res := mustRun(t, prog, nil, nil); res.Verdict != 45 {
		t.Fatalf("Verdict = %d, want 45", res.Verdict)
	}
}

func TestNestedLoopIdx(t *testing.T) {
	// sum over i in 0..2, j in 0..3 of (i*10 + j) = 4*(0+10+20) + 3*(0+1+2+3) = 120+18=138
	b := NewBuilder("nest", 1)
	b.Push(0).Store(0)
	b.Loop(3, func(b *Builder) {
		b.Loop(4, func(b *Builder) {
			b.Idx(1).Push(10).Mul().Idx(0).Add().Load(0).Add().Store(0)
		})
	})
	p := b.Load(0).Declass().Verdict().MustBuild()
	if _, err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res := mustRun(t, p, nil, nil); res.Verdict != 138 {
		t.Fatalf("Verdict = %d, want 138", res.Verdict)
	}
}

func TestZeroCountLoopSkipsBody(t *testing.T) {
	b := NewBuilder("zero", 1)
	b.Push(42).Store(0)
	b.Loop(0, func(b *Builder) {
		b.Push(0).Store(0)
	})
	p := b.Load(0).Declass().Verdict().MustBuild()
	if _, err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res := mustRun(t, p, nil, nil); res.Verdict != 42 {
		t.Fatalf("Verdict = %d, want 42", res.Verdict)
	}
}

func TestForwardJumps(t *testing.T) {
	// if contribution length == 0 { 5 } else { 9 } via public branch
	b := NewBuilder("jump", 0)
	elseL := b.NewLabel()
	endL := b.NewLabel()
	b.LenC().Push(0).Eq()
	b.Jz(elseL)
	b.Push(5).Jmp(endL)
	b.Bind(elseL)
	b.Push(9)
	b.Bind(endL)
	p := b.Declass().Verdict().MustBuild()
	if _, err := Verify(p); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res := mustRun(t, p, nil, nil); res.Verdict != 5 {
		t.Fatalf("empty input: Verdict = %d, want 5", res.Verdict)
	}
	if res := mustRun(t, p, []int64{1}, nil); res.Verdict != 9 {
		t.Fatalf("non-empty input: Verdict = %d, want 9", res.Verdict)
	}
}

func TestInputBanks(t *testing.T) {
	p := NewBuilder("banks", 0).
		LoadC(1).LoadP(0).Add().Declass().Verdict().MustBuild()
	res := mustRun(t, p, []int64{10, 20}, []int64{5})
	if res.Verdict != 25 {
		t.Fatalf("Verdict = %d, want 25", res.Verdict)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name    string
		prog    *Program
		contrib []int64
		want    error
	}{
		{"div-by-zero", NewBuilder("d", 0).Push(1).Push(0).Div().Declass().Verdict().MustBuild(), nil, ErrDivByZero},
		{"mod-by-zero", NewBuilder("m", 0).Push(1).Push(0).Mod().Declass().Verdict().MustBuild(), nil, ErrDivByZero},
		{"index-static", NewBuilder("i", 0).LoadC(3).Declass().Verdict().MustBuild(), []int64{1}, ErrIndexRange},
		{"index-dynamic", NewBuilder("id", 0).Push(9).LoadCI().Declass().Verdict().MustBuild(), []int64{1}, ErrIndexRange},
		{"index-negative", NewBuilder("in", 0).Push(-1).LoadCI().Declass().Verdict().MustBuild(), []int64{1}, ErrIndexRange},
		{"halt", NewBuilder("h", 0).Halt().MustBuild(), nil, ErrHaltNoVerdict},
		{"underflow", &Program{Name: "u", Code: []Instr{{Op: OpAdd}}}, nil, ErrStackDepth},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.prog, c.contrib, nil, nil)
			if !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestDynamicTaintEnforcement(t *testing.T) {
	// Even without static verification, a secret cannot reach the verdict.
	leak := NewBuilder("leak", 0).LoadC(0).Verdict().MustBuild()
	if _, err := Run(leak, []int64{538}, nil, nil); !errors.Is(err, ErrTaintedVerdict) {
		t.Fatalf("err = %v, want ErrTaintedVerdict", err)
	}
	// Nor can control flow branch on a secret.
	branch := NewBuilder("branch", 0)
	l := branch.NewLabel()
	branch.LoadC(0).Jz(l).Bind(l)
	p := branch.Push(1).Declass().Verdict().MustBuild()
	if _, err := Run(p, []int64{1}, nil, nil); !errors.Is(err, ErrSecretBranch) {
		t.Fatalf("err = %v, want ErrSecretBranch", err)
	}
	// Taint propagates through arithmetic and locals.
	viaLocal := NewBuilder("vialocal", 1).
		LoadC(0).Push(1).Add().Store(0).Load(0).Verdict().MustBuild()
	if _, err := Run(viaLocal, []int64{1}, nil, nil); !errors.Is(err, ErrTaintedVerdict) {
		t.Fatalf("err = %v, want ErrTaintedVerdict", err)
	}
	// Declass clears taint.
	ok := NewBuilder("ok", 0).LoadC(0).Declass().Verdict().MustBuild()
	if res := mustRun(t, ok, []int64{5}, nil); res.Verdict != 5 {
		t.Fatalf("Verdict = %d, want 5", res.Verdict)
	}
}

func TestStepBudget(t *testing.T) {
	b := NewBuilder("busy", 0)
	b.Loop(1000, func(b *Builder) { b.Push(0).Pop() })
	p := b.Push(1).Declass().Verdict().MustBuild()
	if _, err := Run(p, nil, nil, &Options{MaxSteps: 10}); !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	if _, err := Run(p, nil, nil, nil); err != nil {
		t.Fatalf("default budget: %v", err)
	}
}

func TestVerifyStaticTaint(t *testing.T) {
	// Static verification must reject the same leaks the runtime rejects.
	leak := NewBuilder("leak", 0).LoadC(0).Verdict().MustBuild()
	if _, err := Verify(leak); !errors.Is(err, ErrTaintedVerdict) {
		t.Fatalf("err = %v, want ErrTaintedVerdict", err)
	}
	branch := NewBuilder("branch", 0)
	l := branch.NewLabel()
	branch.LoadP(0).Jz(l).Bind(l)
	p := branch.Push(1).Declass().Verdict().MustBuild()
	if _, err := Verify(p); !errors.Is(err, ErrSecretBranch) {
		t.Fatalf("err = %v, want ErrSecretBranch", err)
	}
	// Taint through a local across loop iterations: iteration 1 taints the
	// local, iteration 2 reads it — the fixpoint must catch the flow.
	b := NewBuilder("loop-taint", 1)
	b.Push(0).Store(0)
	b.Loop(2, func(b *Builder) {
		b.Load(0).LoadC(0).Add().Store(0)
	})
	lp := b.Load(0).Verdict().MustBuild()
	if _, err := Verify(lp); !errors.Is(err, ErrTaintedVerdict) {
		t.Fatalf("loop taint: err = %v, want ErrTaintedVerdict", err)
	}
}

func TestVerifyStructuralErrors(t *testing.T) {
	cases := []struct {
		name string
		prog *Program
		want error
	}{
		{"empty", &Program{Name: "e"}, ErrTooLarge},
		{"too-many-locals", &Program{Name: "l", Locals: MaxLocals + 1, Code: []Instr{{Op: OpVerdict}}}, ErrTooLarge},
		{"bad-op", &Program{Name: "b", Code: []Instr{{Op: opCount}, {Op: OpVerdict}}}, ErrBadOp},
		{"bad-local", &Program{Name: "bl", Code: []Instr{{Op: OpLoad, Arg: 0}, {Op: OpVerdict}}}, ErrBadArg},
		{"idx-no-loop", &Program{Name: "ix", Code: []Instr{{Op: OpIdx}, {Op: OpVerdict}}}, ErrBadArg},
		{"unclosed-loop", &Program{Name: "ul", Code: []Instr{{Op: OpLoop, Arg: 1}, {Op: OpVerdict}}}, ErrLoopStructure},
		{"stray-endloop", &Program{Name: "se", Code: []Instr{{Op: OpEndLoop}, {Op: OpVerdict}}}, ErrLoopStructure},
		{"loop-count-negative", &Program{Name: "ln", Code: []Instr{{Op: OpLoop, Arg: -1}, {Op: OpEndLoop}, {Op: OpVerdict}}}, ErrBadArg},
		{"jump-backward", &Program{Name: "jb", Code: []Instr{{Op: OpPush, Arg: 1}, {Op: OpJmp, Arg: -2}, {Op: OpVerdict}}}, ErrJumpTarget},
		{"jump-out-of-range", &Program{Name: "jo", Code: []Instr{{Op: OpJmp, Arg: 100}, {Op: OpVerdict}}}, ErrJumpTarget},
		{"no-verdict", &Program{Name: "nv", Code: []Instr{{Op: OpHalt}}}, ErrNoVerdict},
		{"falls-off-end", &Program{Name: "fe", Code: []Instr{
			{Op: OpLenC},
			{Op: OpJz, Arg: 3}, // empty input -> pc 5, which runs off the end
			{Op: OpPush, Arg: 1},
			{Op: OpDeclass},
			{Op: OpVerdict},
			{Op: OpPush, Arg: 1},
			{Op: OpPop},
		}}, ErrFallsOffEnd},
		{"underflow", &Program{Name: "uf", Code: []Instr{{Op: OpAdd}, {Op: OpVerdict}}}, ErrStackDepth},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Verify(c.prog); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestVerifyJumpAcrossLoopBoundary(t *testing.T) {
	// jz jumping from outside into a loop body.
	p := &Program{Name: "cross", Code: []Instr{
		{Op: OpPush, Arg: 1},
		{Op: OpJz, Arg: 2}, // target = pc 4, inside the loop body
		{Op: OpLoop, Arg: 2},
		{Op: OpPush, Arg: 0},
		{Op: OpPop},
		{Op: OpEndLoop},
		{Op: OpPush, Arg: 1},
		{Op: OpDeclass},
		{Op: OpVerdict},
	}}
	if _, err := Verify(p); !errors.Is(err, ErrJumpTarget) {
		t.Fatalf("err = %v, want ErrJumpTarget", err)
	}
}

func TestVerifyLoopBodyMustBeStackNeutral(t *testing.T) {
	p := &Program{Name: "grow", Code: []Instr{
		{Op: OpLoop, Arg: 3},
		{Op: OpPush, Arg: 1}, // body grows the stack each iteration
		{Op: OpEndLoop},
		{Op: OpPush, Arg: 1},
		{Op: OpDeclass},
		{Op: OpVerdict},
	}}
	if _, err := Verify(p); !errors.Is(err, ErrStackDepth) {
		t.Fatalf("err = %v, want ErrStackDepth", err)
	}
}

func TestVerifyDepthMismatchAtJoin(t *testing.T) {
	// Two paths reach the same pc with different stack depths.
	b := NewBuilder("join", 0)
	l := b.NewLabel()
	b.LenC().Push(0).Eq()
	b.Jz(l)
	b.Push(1) // only on fallthrough path
	b.Bind(l)
	p := b.Push(1).Declass().Verdict().MustBuild()
	if _, err := Verify(p); !errors.Is(err, ErrStackDepth) {
		t.Fatalf("err = %v, want ErrStackDepth", err)
	}
}

func TestVerifyCostBound(t *testing.T) {
	// Deeply nested max-count loops exceed the budget.
	b := NewBuilder("expensive", 0)
	b.Loop(MaxLoopCount, func(b *Builder) {
		b.Loop(MaxLoopCount, func(b *Builder) {
			b.Push(0).Pop()
		})
	})
	p := b.Push(1).Declass().Verdict().MustBuild()
	if _, err := Verify(p); !errors.Is(err, ErrCostBound) {
		t.Fatalf("err = %v, want ErrCostBound", err)
	}
}

func TestVerifyCostBoundCoversActualSteps(t *testing.T) {
	progs := []*Program{
		UnitRangeCheck("rc", 8),
		SumBound("sb", 8, 0, 100),
		CrossCheck("cc", 8, 10),
		ThresholdScore("ts", []int64{1, 2, 3}, 10),
		AlwaysValid("av"),
	}
	for _, p := range progs {
		a, err := Verify(p)
		if err != nil {
			t.Fatalf("Verify(%s): %v", p.Name, err)
		}
		contribution := make([]int64, 8)
		private := make([]int64, 8)
		if p.Name == "ts" {
			private = []int64{1, 1, 1}
		}
		res, err := Run(p, contribution, private, nil)
		if err != nil {
			t.Fatalf("Run(%s): %v", p.Name, err)
		}
		if res.Steps > a.CostBound {
			t.Errorf("%s: actual steps %d exceed proven bound %d", p.Name, res.Steps, a.CostBound)
		}
	}
}

func TestAnalysisFields(t *testing.T) {
	p := UnitRangeCheck("rc", 4)
	a, err := Verify(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.DeclassSites) != 1 {
		t.Errorf("DeclassSites = %v, want exactly 1", a.DeclassSites)
	}
	if len(a.Verdicts) != 1 {
		t.Errorf("Verdicts = %v, want exactly 1", a.Verdicts)
	}
	if !a.ReadsContribution {
		t.Error("ReadsContribution = false")
	}
	if a.ReadsPrivate {
		t.Error("ReadsPrivate = true for contribution-only predicate")
	}
	if a.MaxStackDepth == 0 || a.MaxStackDepth > MaxStack {
		t.Errorf("MaxStackDepth = %d", a.MaxStackDepth)
	}
	ts := ThresholdScore("ts", []int64{1}, 0)
	at, err := Verify(ts)
	if err != nil {
		t.Fatal(err)
	}
	if !at.ReadsPrivate {
		t.Error("ThresholdScore should read private bank")
	}
}

func TestRangeCheckBlocksThe538Attack(t *testing.T) {
	// The paper's Figure 1d: a weight of 538 where [0,1] is valid.
	dim := 4
	p := UnitRangeCheck("fig1d", dim)
	if _, err := Verify(p); err != nil {
		t.Fatal(err)
	}
	honest := []int64{0, fixed.Scale / 2, fixed.Scale, fixed.Scale / 10}
	if res := mustRun(t, p, honest, nil); res.Verdict != 1 {
		t.Fatalf("honest contribution rejected: %d", res.Verdict)
	}
	malicious := []int64{0, fixed.Scale / 2, 538 * fixed.Scale, fixed.Scale / 10}
	if res := mustRun(t, p, malicious, nil); res.Verdict != 0 {
		t.Fatalf("538 attack passed validation: %d", res.Verdict)
	}
	negative := []int64{-1, 0, 0, 0}
	if res := mustRun(t, p, negative, nil); res.Verdict != 0 {
		t.Fatalf("negative weight passed validation: %d", res.Verdict)
	}
}

func TestRangeCheckRejectsWrongDimension(t *testing.T) {
	p := UnitRangeCheck("dim", 3)
	// Longer vector: length check fails even though a loop over 3 would
	// pass.
	long := []int64{0, 0, 0, 0}
	if res := mustRun(t, p, long, nil); res.Verdict != 0 {
		t.Fatalf("oversized contribution accepted: %d", res.Verdict)
	}
	// Shorter vector: the indexed load faults, which the Glimmer treats as
	// invalid.
	if _, err := Run(p, []int64{0, 0}, nil, nil); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("short contribution: err = %v, want ErrIndexRange", err)
	}
}

func TestRangeCheckBoundaries(t *testing.T) {
	p := RangeCheck("bounds", 1, 10, 20)
	for _, c := range []struct {
		v    int64
		want int64
	}{{9, 0}, {10, 1}, {15, 1}, {20, 1}, {21, 0}} {
		if res := mustRun(t, p, []int64{c.v}, nil); res.Verdict != c.want {
			t.Errorf("value %d: verdict %d, want %d", c.v, res.Verdict, c.want)
		}
	}
}

func TestSumBound(t *testing.T) {
	p := SumBound("sum", 3, 5, 10)
	if res := mustRun(t, p, []int64{2, 3, 4}, nil); res.Verdict != 1 {
		t.Errorf("sum 9 in [5,10] rejected")
	}
	if res := mustRun(t, p, []int64{1, 1, 1}, nil); res.Verdict != 0 {
		t.Errorf("sum 3 below bound accepted")
	}
	if res := mustRun(t, p, []int64{5, 5, 5}, nil); res.Verdict != 0 {
		t.Errorf("sum 15 above bound accepted")
	}
}

func TestCrossCheck(t *testing.T) {
	p := CrossCheck("cc", 3, 5)
	if _, err := Verify(p); err != nil {
		t.Fatal(err)
	}
	claimed := []int64{100, 200, 300}
	observed := []int64{102, 198, 300}
	if res := mustRun(t, p, claimed, observed); res.Verdict != 1 {
		t.Error("within-tolerance corroboration rejected")
	}
	fabricated := []int64{100, 200, 400}
	if res := mustRun(t, p, fabricated, observed); res.Verdict != 0 {
		t.Error("fabricated contribution accepted")
	}
}

func TestThresholdScore(t *testing.T) {
	p := ThresholdScore("bot", []int64{2, -1, 3}, 10)
	if _, err := Verify(p); err != nil {
		t.Fatal(err)
	}
	// 2*4 - 1*1 + 3*1 = 10 >= 10 -> 1
	if res := mustRun(t, p, nil, []int64{4, 1, 1}); res.Verdict != 1 {
		t.Error("score at threshold rejected")
	}
	// 2*1 - 1*0 + 3*2 = 8 < 10 -> 0
	if res := mustRun(t, p, nil, []int64{1, 0, 2}); res.Verdict != 0 {
		t.Error("score under threshold accepted")
	}
	// Extra signals rejected by length check.
	if res := mustRun(t, p, nil, []int64{4, 1, 1, 9}); res.Verdict != 0 {
		t.Error("padded signal vector accepted")
	}
}

func TestTraceCorroboration(t *testing.T) {
	// Branch trace equality: identical public control flow gives identical
	// traces; divergent control flow (different input lengths) differs.
	b := NewBuilder("traced", 0)
	elseL := b.NewLabel()
	endL := b.NewLabel()
	b.LenC().Push(2).Eq()
	b.Jz(elseL)
	b.Push(1).Jmp(endL)
	b.Bind(elseL)
	b.Push(0)
	b.Bind(endL)
	p := b.Declass().Verdict().MustBuild()

	run := func(contrib []int64) *Trace {
		res, err := Run(p, contrib, nil, &Options{RecordTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Trace
	}
	t1 := run([]int64{1, 2})
	t2 := run([]int64{7, 8})
	t3 := run([]int64{1})
	if !t1.Equal(t2) {
		t.Error("same control flow produced different traces")
	}
	if t1.Equal(t3) {
		t.Error("divergent control flow produced identical traces")
	}
	if t1.Len() != 1 {
		t.Errorf("trace length = %d, want 1", t1.Len())
	}
}

func TestTraceNilHandling(t *testing.T) {
	var nilTrace *Trace
	if !nilTrace.Equal(nil) {
		t.Error("nil traces should be equal")
	}
	p := AlwaysValid("av")
	res, err := Run(p, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("trace recorded without RecordTrace")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("unbound", 0)
	l := b.NewLabel()
	b.Jmp(l).Push(1).Declass().Verdict()
	if _, err := b.Build(); err == nil {
		t.Error("unbound label accepted")
	}
	b2 := NewBuilder("double", 0)
	l2 := b2.NewLabel()
	b2.Bind(l2).Bind(l2)
	if _, err := b2.Build(); err == nil {
		t.Error("double bind accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	p := UnitRangeCheck("codec", 7)
	back, err := Decode(Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name || back.Locals != p.Locals || len(back.Code) != len(p.Code) {
		t.Fatal("metadata corrupted")
	}
	for i := range p.Code {
		if back.Code[i] != p.Code[i] {
			t.Fatalf("instr %d corrupted", i)
		}
	}
}

// Property: the RangeCheck predicate agrees with a native Go range check on
// random vectors.
func TestQuickRangeCheckAgreesWithNative(t *testing.T) {
	const dim = 6
	p := RangeCheck("quick", dim, -1000, 1000)
	if _, err := Verify(p); err != nil {
		t.Fatal(err)
	}
	f := func(raw [dim]int16) bool {
		contribution := make([]int64, dim)
		want := int64(1)
		for i, v := range raw {
			contribution[i] = int64(v)
			if v < -1000 || v > 1000 {
				want = 0
			}
		}
		res, err := Run(p, contribution, nil, nil)
		return err == nil && res.Verdict == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Encode/Decode is the identity on stdlib-shaped programs.
func TestQuickCodecIdentity(t *testing.T) {
	f := func(dim uint8, lo, hi int16) bool {
		d := int(dim%32) + 1
		p := RangeCheck("q", d, int64(lo), int64(hi))
		back, err := Decode(Encode(p))
		if err != nil {
			return false
		}
		return bytes.Equal(Encode(back), Encode(p))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: verified programs never exceed their proven cost bound at
// runtime, for any input.
func TestQuickCostBoundIsSound(t *testing.T) {
	p := UnitRangeCheck("q", 4)
	a, err := Verify(p)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals [4]int64) bool {
		res, err := Run(p, vals[:], nil, nil)
		if err != nil {
			return true // runtime faults are acceptable; divergence is not
		}
		return res.Steps <= a.CostBound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOpStringCoverage(t *testing.T) {
	for op := OpHalt; op < opCount; op++ {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
	if Op(200).String() != "op(200)" {
		t.Error("unknown opcode formatting")
	}
}
