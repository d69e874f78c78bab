package predicate

import (
	"errors"
	"fmt"
	"math"
)

// Runtime errors.
var (
	ErrStepBudget    = errors.New("predicate: step budget exhausted")
	ErrDivByZero     = errors.New("predicate: division by zero")
	ErrIndexRange    = errors.New("predicate: input index out of range")
	ErrStackOverflow = errors.New("predicate: stack overflow")
	ErrHaltNoVerdict = errors.New("predicate: halted without a verdict")
)

// Options configures one execution.
type Options struct {
	// RecordTrace captures the outcome of every conditional branch,
	// enabling XTrec-style corroboration: a verifier can re-run the
	// predicate on claimed inputs and compare traces.
	RecordTrace bool
	// MaxSteps overrides the default step budget (MaxCost) when positive.
	MaxSteps int64
}

// Result is the outcome of a successful execution.
type Result struct {
	// Verdict is the declassified value passed to VERDICT. By convention
	// 0 means invalid, nonzero means valid (or a confidence in [0,100]).
	Verdict int64
	// Steps is the number of instructions executed.
	Steps int64
	// Trace is the branch trace, if recording was requested.
	Trace *Trace
}

// Trace is a packed sequence of conditional-branch outcomes.
type Trace struct {
	bits []byte
	n    int
}

func (t *Trace) append(taken bool) {
	if t.n%8 == 0 {
		t.bits = append(t.bits, 0)
	}
	if taken {
		t.bits[t.n/8] |= 1 << (t.n % 8)
	}
	t.n++
}

// value is one tainted stack slot.
type value struct {
	v      int64
	secret bool
}

type loopFrame struct {
	start     int // pc of OpLoop
	end       int // pc of OpEndLoop
	remaining int64
	index     int64
}

// Run executes a program over the two input banks. It enforces the same
// safety properties dynamically that Verify proves statically (step budget,
// stack bounds, taint discipline), so even an unverified program cannot
// leak or diverge — it can only fail.
func Run(p *Program, contribution, private []int64, opts *Options) (*Result, error) {
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
		frames []loopFrame
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
			frames = append(frames, loopFrame{start: pc, end: end, remaining: ins.Arg, index: 0})
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

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
