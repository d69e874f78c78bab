package predicate

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"glimmers/internal/xcrypto"
)

type oracleFrame struct {
	start     int // pc of OpLoop
	end       int // pc of OpEndLoop
	remaining int64
	index     int64
}

// runOracle is the interpreter as it was before its state moved into fixed
// arrays — a loop-end map, append-grown stacks, closures for push and pop
// — kept as the reference the differential test holds Run to.
func runOracle(p *Program, contribution, private []int64, opts *Options) (*Result, error) {
	if opts == nil {
		opts = &Options{}
	}
	budget := opts.MaxSteps
	if budget <= 0 {
		budget = MaxCost
	}

	// Precompute loop matching.
	ends := make(map[int]int)
	var open []int
	for pc, ins := range p.Code {
		switch ins.Op {
		case OpLoop:
			open = append(open, pc)
		case OpEndLoop:
			if len(open) == 0 {
				return nil, fmt.Errorf("%w: endloop without loop at pc %d", ErrLoopStructure, pc)
			}
			ends[open[len(open)-1]] = pc
			open = open[:len(open)-1]
		}
	}
	if len(open) != 0 {
		return nil, fmt.Errorf("%w: unclosed loop", ErrLoopStructure)
	}

	var (
		stack  []value
		locals = make([]value, p.Locals)
		frames []oracleFrame
		steps  int64
		trace  *Trace
	)
	if opts.RecordTrace {
		trace = &Trace{}
	}

	pop := func() value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	push := func(v value) {
		stack = append(stack, v)
	}

	for pc := 0; pc < len(p.Code); {
		if steps++; steps > budget {
			return nil, fmt.Errorf("%w: %d steps", ErrStepBudget, budget)
		}
		ins := p.Code[pc]
		pops, pushes := stackEffect(ins.Op)
		if len(stack) < pops {
			return nil, fmt.Errorf("%w: underflow at pc %d (%s)", ErrStackDepth, pc, ins)
		}
		if len(stack)-pops+pushes > MaxStack {
			return nil, fmt.Errorf("%w: at pc %d", ErrStackOverflow, pc)
		}

		switch ins.Op {
		case OpHalt:
			return nil, ErrHaltNoVerdict
		case OpPush:
			push(value{v: ins.Arg})
		case OpLoadC:
			if ins.Arg < 0 || ins.Arg >= int64(len(contribution)) {
				return nil, fmt.Errorf("%w: contribution[%d] of %d", ErrIndexRange, ins.Arg, len(contribution))
			}
			push(value{v: contribution[ins.Arg], secret: true})
		case OpLoadP:
			if ins.Arg < 0 || ins.Arg >= int64(len(private)) {
				return nil, fmt.Errorf("%w: private[%d] of %d", ErrIndexRange, ins.Arg, len(private))
			}
			push(value{v: private[ins.Arg], secret: true})
		case OpLoadCI:
			idx := pop()
			if idx.v < 0 || idx.v >= int64(len(contribution)) {
				return nil, fmt.Errorf("%w: contribution[%d] of %d", ErrIndexRange, idx.v, len(contribution))
			}
			push(value{v: contribution[idx.v], secret: true})
		case OpLoadPI:
			idx := pop()
			if idx.v < 0 || idx.v >= int64(len(private)) {
				return nil, fmt.Errorf("%w: private[%d] of %d", ErrIndexRange, idx.v, len(private))
			}
			push(value{v: private[idx.v], secret: true})
		case OpLenC:
			push(value{v: int64(len(contribution))})
		case OpLenP:
			push(value{v: int64(len(private))})
		case OpLoad:
			if ins.Arg < 0 || ins.Arg >= int64(len(locals)) {
				return nil, fmt.Errorf("%w: local %d of %d at pc %d", ErrBadArg, ins.Arg, len(locals), pc)
			}
			push(locals[ins.Arg])
		case OpStore:
			if ins.Arg < 0 || ins.Arg >= int64(len(locals)) {
				return nil, fmt.Errorf("%w: local %d of %d at pc %d", ErrBadArg, ins.Arg, len(locals), pc)
			}
			locals[ins.Arg] = pop()
		case OpIdx:
			k := int(ins.Arg)
			if k < 0 || k >= len(frames) {
				return nil, fmt.Errorf("%w: idx %d with %d active loops at pc %d", ErrBadArg, k, len(frames), pc)
			}
			push(value{v: frames[len(frames)-1-k].index})
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpMin, OpMax,
			OpLt, OpLe, OpGt, OpGe, OpEq, OpNe, OpAnd, OpOr:
			b := pop()
			a := pop()
			r, err := binaryOp(ins.Op, a.v, b.v)
			if err != nil {
				return nil, fmt.Errorf("%w at pc %d", err, pc)
			}
			push(value{v: r, secret: a.secret || b.secret})
		case OpNeg:
			a := pop()
			push(value{v: -a.v, secret: a.secret})
		case OpAbs:
			a := pop()
			v := a.v
			if v < 0 {
				v = -v
			}
			push(value{v: v, secret: a.secret})
		case OpNot:
			a := pop()
			push(value{v: boolToInt(a.v == 0), secret: a.secret})
		case OpDup:
			a := pop()
			push(a)
			push(a)
		case OpPop:
			pop()
		case OpSwap:
			b := pop()
			a := pop()
			push(b)
			push(a)
		case OpOver:
			b := pop()
			a := pop()
			push(a)
			push(b)
			push(a)
		case OpSelect:
			cond := pop()
			onFalse := pop()
			onTrue := pop()
			out := onFalse
			if cond.v != 0 {
				out = onTrue
			}
			out.secret = out.secret || cond.secret || onTrue.secret || onFalse.secret
			push(out)
		case OpJmp:
			target := int64(pc) + 1 + ins.Arg
			if target < 0 || target > int64(len(p.Code)) {
				return nil, fmt.Errorf("%w: jump to %d at pc %d", ErrJumpTarget, target, pc)
			}
			pc = int(target)
			continue
		case OpJz:
			cond := pop()
			if cond.secret {
				return nil, fmt.Errorf("%w: at pc %d", ErrSecretBranch, pc)
			}
			taken := cond.v == 0
			if trace != nil {
				trace.append(taken)
			}
			if taken {
				target := int64(pc) + 1 + ins.Arg
				if target < 0 || target > int64(len(p.Code)) {
					return nil, fmt.Errorf("%w: jump to %d at pc %d", ErrJumpTarget, target, pc)
				}
				pc = int(target)
				continue
			}
		case OpLoop:
			end, ok := ends[pc]
			if !ok {
				return nil, fmt.Errorf("%w: loop without end at pc %d", ErrLoopStructure, pc)
			}
			if ins.Arg == 0 {
				pc = end + 1
				continue
			}
			frames = append(frames, oracleFrame{start: pc, end: end, remaining: ins.Arg, index: 0})
		case OpEndLoop:
			if len(frames) == 0 {
				// Reachable only by jumping into a loop body, which the
				// verifier forbids; unverified programs fail cleanly.
				return nil, fmt.Errorf("%w: endloop with no active loop at pc %d", ErrLoopStructure, pc)
			}
			f := &frames[len(frames)-1]
			f.remaining--
			if f.remaining > 0 {
				f.index++
				pc = f.start + 1
				continue
			}
			frames = frames[:len(frames)-1]
		case OpDeclass:
			a := pop()
			push(value{v: a.v})
		case OpVerdict:
			v := pop()
			if v.secret {
				return nil, fmt.Errorf("%w: at pc %d", ErrTaintedVerdict, pc)
			}
			return &Result{Verdict: v.v, Steps: steps, Trace: trace}, nil
		default:
			return nil, fmt.Errorf("%w: %s at pc %d", ErrBadOp, ins.Op, pc)
		}
		pc++
	}
	return nil, ErrHaltNoVerdict
}

// stackEffect is the oracle's stack effect: the switch the effects table
// replaced.
func stackEffect(op Op) (int, int) {
	switch op {
	case OpPush, OpLenC, OpLenP, OpLoad, OpIdx, OpLoadC, OpLoadP:
		return 0, 1
	case OpLoadCI, OpLoadPI, OpNeg, OpAbs, OpNot, OpDeclass:
		return 1, 1
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpMin, OpMax,
		OpLt, OpLe, OpGt, OpGe, OpEq, OpNe, OpAnd, OpOr:
		return 2, 1
	case OpDup:
		return 1, 2
	case OpPop, OpStore, OpJz, OpVerdict:
		return 1, 0
	case OpSwap:
		return 2, 2
	case OpOver:
		return 2, 3
	case OpSelect:
		return 3, 1
	case OpHalt, OpJmp, OpLoop, OpEndLoop:
		return 0, 0
	}
	return 0, 0
}

// binaryOp is the oracle's arithmetic.
func binaryOp(op Op, a, b int64) (int64, error) {
	switch op {
	case OpAdd:
		return a + b, nil
	case OpSub:
		return a - b, nil
	case OpMul:
		return a * b, nil
	case OpDiv:
		if b == 0 {
			return 0, ErrDivByZero
		}
		if a == math.MinInt64 && b == -1 {
			// Two's-complement wrap: Go's / panics on this one case.
			return a, nil
		}
		return a / b, nil
	case OpMod:
		if b == 0 {
			return 0, ErrDivByZero
		}
		if a == math.MinInt64 && b == -1 {
			return 0, nil
		}
		return a % b, nil
	case OpMin:
		if a < b {
			return a, nil
		}
		return b, nil
	case OpMax:
		if a > b {
			return a, nil
		}
		return b, nil
	case OpLt:
		return boolToInt(a < b), nil
	case OpLe:
		return boolToInt(a <= b), nil
	case OpGt:
		return boolToInt(a > b), nil
	case OpGe:
		return boolToInt(a >= b), nil
	case OpEq:
		return boolToInt(a == b), nil
	case OpNe:
		return boolToInt(a != b), nil
	case OpAnd:
		return boolToInt(a != 0 && b != 0), nil
	case OpOr:
		return boolToInt(a != 0 || b != 0), nil
	}
	return 0, fmt.Errorf("%w: %s", ErrBadOp, op)
}

// sameRun reports how Run and the oracle differ on one execution, or "".
func sameRun(p *Program, contribution, private []int64, opts *Options) string {
	got, gotErr := Run(p, contribution, private, opts)
	want, wantErr := runOracle(p, contribution, private, opts)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, oracle %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, oracle %q", gotErr, wantErr)
		}
		return ""
	case got.Verdict != want.Verdict || got.Steps != want.Steps:
		return fmt.Sprintf("verdict %d in %d steps, oracle %d in %d", got.Verdict, got.Steps, want.Verdict, want.Steps)
	case (got.Trace == nil) != (want.Trace == nil):
		return "trace recorded on one side only"
	case got.Trace != nil && (got.Trace.n != want.Trace.n || !slices.Equal(got.Trace.bits, want.Trace.bits)):
		return fmt.Sprintf("trace %v/%d, oracle %v/%d", got.Trace.bits, got.Trace.n, want.Trace.bits, want.Trace.n)
	}
	return ""
}

// TestRunMatchesOracle holds the interpreter to the reference one —
// verdict, step count, branch trace and error text alike — over the stdlib
// predicates on in-range, out-of-range and short inputs, the hand-written
// programs of this package's tests, and random op sequences (nearly all of
// them unverifiable) on random inputs. It holds the effects table to the
// reference's stackEffect too.
func TestRunMatchesOracle(t *testing.T) {
	check := func(p *Program, contribution, private []int64, opts *Options) {
		t.Helper()
		if diff := sameRun(p, contribution, private, opts); diff != "" {
			t.Fatalf("%s (opts %+v, contribution %v, private %v)\n%s", diff, opts, contribution, private, listing(p))
		}
	}
	for op := range 256 {
		if pops, pushes := stackEffect(Op(op)); effects[op] != (effect{pops, pushes}) {
			t.Errorf("effects[%d] = %v, stackEffect says (%d, %d)", op, effects[op], pops, pushes)
		}
	}
	optionSets := []*Options{nil, {RecordTrace: true}, {MaxSteps: 40}, {MaxSteps: 1}}

	const dim = 8
	stdlib := []*Program{
		UnitRangeCheck("unit", dim),
		RangeCheck("range", dim, -3, 3),
		SumBound("sum", dim, 0, 4),
		CrossCheck("cross", dim, 2),
		ThresholdScore("score", []int64{3, -1, 2}, 4),
		AlwaysValid("always"),
	}
	inputs := [][]int64{
		make([]int64, dim),
		{1, 2, 3, -4, 5, 6, 7, 8},
		{0, 0, 0, 538, 0, 0, 0, 0},
		{1, 2},
		nil,
	}
	for _, p := range stdlib {
		for _, c := range inputs {
			for _, priv := range inputs {
				for _, opts := range optionSets {
					check(p, c, priv, opts)
				}
			}
		}
	}

	for _, p := range handWrittenPrograms() {
		for _, opts := range optionSets {
			check(p, []int64{3, -7, 42, 0, 1}, []int64{9, -9, 9}, opts)
		}
	}

	prg := xcrypto.NewPRG([]byte("run-oracle"))
	for i := 0; i < 30000; i++ {
		p := randomProgram(prg)
		c := make([]int64, prg.Intn(4))
		for j := range c {
			c[j] = int64(prg.Intn(7)) - 3
		}
		priv := make([]int64, prg.Intn(3))
		for j := range priv {
			priv[j] = int64(prg.Uint64())
		}
		check(p, c, priv, optionSets[prg.Intn(len(optionSets))])
	}
	// Straight-line data flow ending in a verdict: where a taint slip in a
	// stack op shows as a verdict the oracle refuses, or the reverse.
	for i := 0; i < 30000; i++ {
		check(randomDataFlow(prg), []int64{5, -1, 0}, []int64{7}, nil)
	}
}

// randomDataFlow draws a verdict-ending run of loads, stack shuffles,
// arithmetic and the odd declass over one local.
func randomDataFlow(prg *xcrypto.PRG) *Program {
	ops := []Op{OpPush, OpLoadC, OpLoadP, OpLoadCI, OpLenC, OpLoad, OpStore, OpDup, OpPop, OpSwap,
		OpOver, OpSelect, OpAdd, OpLt, OpNeg, OpAbs, OpNot, OpDeclass}
	n := prg.Intn(12) + 1
	code := make([]Instr, 0, n+1)
	for range n {
		op := ops[prg.Intn(len(ops))]
		var arg int64
		if op.hasArg() {
			arg = int64(prg.Intn(2))
			if op == OpLoad || op == OpStore {
				arg = 0
			}
		}
		code = append(code, Instr{Op: op, Arg: arg})
	}
	return &Program{Name: "flow", Code: append(code, Instr{Op: OpVerdict}), Locals: 1}
}

// handWrittenPrograms are the shapes this package's tests build by hand —
// every opcode, nested and empty loops, forward jumps, each runtime fault
// and each structural error — plus the ones that push Run off its stack
// buffers: nesting past MaxNesting, locals past MaxLocals, and code past
// the loop-end buffer.
func handWrittenPrograms() []*Program {
	var progs []*Program
	add := func(b *Builder) { progs = append(progs, b.MustBuild()) }

	arith := NewBuilder("arith", 0).Push(9).Push(4)
	for _, op := range []func() *Builder{arith.Add, arith.Sub, arith.Mul, arith.Div, arith.Mod, arith.Min, arith.Max,
		arith.Lt, arith.Le, arith.Gt, arith.Ge, arith.Eq, arith.Ne, arith.And, arith.Or} {
		op()
		arith.Push(3)
	}
	add(arith.Neg().Abs().Not().Declass().Verdict())
	add(NewBuilder("stack", 0).Push(10).Push(3).Over().Sub().Swap().Pop().Dup().Add().Declass().Verdict())
	add(NewBuilder("select", 0).Push(111).LoadC(2).Push(1).Select().Declass().Verdict())
	add(NewBuilder("select-false", 0).Push(111).Push(222).Push(0).Select().Declass().Verdict())
	// Without a declass the verdict is refused if any of the three is secret.
	add(NewBuilder("select-secret-true", 0).LoadC(0).Push(222).Push(1).Select().Verdict())
	add(NewBuilder("select-secret-false", 0).Push(111).LoadC(0).Push(1).Select().Verdict())
	add(NewBuilder("select-secret-cond", 0).Push(111).Push(222).LoadC(0).Select().Verdict())

	sum := NewBuilder("loopsum", 1).Push(0).Store(0)
	sum.Loop(10, func(b *Builder) { b.Idx(0).Load(0).Add().Store(0) })
	add(sum.Load(0).Declass().Verdict())
	nest := NewBuilder("nest", 1).Push(0).Store(0)
	nest.Loop(3, func(b *Builder) {
		b.Loop(4, func(b *Builder) { b.Idx(1).Push(10).Mul().Idx(0).Add().Load(0).Add().Store(0) })
	})
	add(nest.Load(0).Declass().Verdict())
	zero := NewBuilder("zero", 1).Push(42).Store(0)
	zero.Loop(0, func(b *Builder) { b.Push(0).Store(0) })
	add(zero.Load(0).Declass().Verdict())

	jump := NewBuilder("jump", 0)
	elseL, endL := jump.NewLabel(), jump.NewLabel()
	jump.LenC().Push(5).Lt().Jz(elseL).Push(5).Jmp(endL).Bind(elseL).Push(9).Bind(endL)
	add(jump.Declass().Verdict())
	branch := NewBuilder("secret-branch", 0)
	l := branch.NewLabel()
	add(branch.LoadC(0).Jz(l).Bind(l).Push(1).Declass().Verdict())

	add(NewBuilder("banks", 0).LoadC(1).LoadP(0).Add().LenP().Add().Declass().Verdict())
	add(NewBuilder("dynamic", 0).Push(2).LoadCI().Push(1).LoadPI().Add().Declass().Verdict())
	add(NewBuilder("div0", 0).Push(1).Push(0).Div().Declass().Verdict())
	add(NewBuilder("mod0", 0).Push(1).Push(0).Mod().Declass().Verdict())
	add(NewBuilder("index", 0).LoadC(9).Declass().Verdict())
	add(NewBuilder("index-dynamic", 0).Push(-1).LoadPI().Declass().Verdict())
	add(NewBuilder("halt", 0).Halt())
	add(NewBuilder("leak", 0).LoadC(0).Verdict())
	add(NewBuilder("via-local", 1).LoadC(0).Push(1).Add().Store(0).Load(0).Verdict())
	busy := NewBuilder("busy", 0)
	busy.Loop(1000, func(b *Builder) { b.Push(0).Pop() })
	add(busy.Push(1).Declass().Verdict())

	progs = append(progs,
		&Program{Name: "underflow", Code: []Instr{{Op: OpAdd}, {Op: OpVerdict}}},
		&Program{Name: "bad-op", Code: []Instr{{Op: opCount}, {Op: OpVerdict}}},
		&Program{Name: "bad-local", Code: []Instr{{Op: OpLoad, Arg: 0}, {Op: OpVerdict}}},
		&Program{Name: "idx-no-loop", Code: []Instr{{Op: OpIdx}, {Op: OpVerdict}}},
		&Program{Name: "unclosed-loop", Code: []Instr{{Op: OpLoop, Arg: 1}, {Op: OpVerdict}}},
		&Program{Name: "stray-endloop", Code: []Instr{{Op: OpEndLoop}, {Op: OpVerdict}}},
		&Program{Name: "negative-loop", Code: []Instr{{Op: OpLoop, Arg: -1}, {Op: OpEndLoop}, {Op: OpPush, Arg: 1}, {Op: OpVerdict}}},
		&Program{Name: "jump-backward", Code: []Instr{{Op: OpPush, Arg: 1}, {Op: OpJmp, Arg: -2}, {Op: OpVerdict}}},
		&Program{Name: "jump-out", Code: []Instr{{Op: OpJmp, Arg: 100}, {Op: OpVerdict}}},
		&Program{Name: "jump-to-end", Code: []Instr{{Op: OpJmp, Arg: 0}}},
		&Program{Name: "into-body", Code: []Instr{{Op: OpJmp, Arg: 1}, {Op: OpLoop, Arg: 2}, {Op: OpEndLoop}, {Op: OpPush, Arg: 1}, {Op: OpVerdict}}},
	)

	overflow := &Program{Name: "overflow"}
	for range MaxStack + 1 {
		overflow.Code = append(overflow.Code, Instr{Op: OpPush, Arg: 1})
	}
	progs = append(progs, overflow)

	deep := &Program{Name: "deep", Locals: MaxLocals + 2}
	for range MaxNesting + 3 {
		deep.Code = append(deep.Code, Instr{Op: OpLoop, Arg: 2})
	}
	deep.Code = append(deep.Code, Instr{Op: OpIdx, Arg: MaxNesting + 2}, Instr{Op: OpLoad, Arg: MaxLocals + 1},
		Instr{Op: OpAdd}, Instr{Op: OpStore, Arg: MaxLocals + 1})
	for range MaxNesting + 3 {
		deep.Code = append(deep.Code, Instr{Op: OpEndLoop})
	}
	deep.Code = append(deep.Code, Instr{Op: OpLoad, Arg: MaxLocals + 1}, Instr{Op: OpVerdict})
	progs = append(progs, deep)

	long := NewBuilder("long", 1).Push(0).Store(0)
	long.Loop(3, func(b *Builder) {
		for range 200 {
			b.Load(0).Push(1).Add().Store(0)
		}
	})
	add(long.Load(0).Declass().Verdict())
	return progs
}
