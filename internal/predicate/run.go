package predicate

import (
	"errors"
	"fmt"
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

// value is one tainted local slot.
type value struct {
	v      int64
	secret bool
}

type loopFrame struct {
	start     int // pc of OpLoop
	remaining int64
	index     int64
}

// effect is one opcode's stack pops and pushes.
type effect struct{ pops, pushes int }

// effects is every opcode's effect, indexed by its byte so a step needs no
// switch; an unknown opcode has none.
var effects = [256]effect{
	OpPush: {0, 1}, OpLenC: {0, 1}, OpLenP: {0, 1}, OpLoad: {0, 1}, OpIdx: {0, 1}, OpLoadC: {0, 1}, OpLoadP: {0, 1},
	OpLoadCI: {1, 1}, OpLoadPI: {1, 1}, OpNeg: {1, 1}, OpAbs: {1, 1}, OpNot: {1, 1}, OpDeclass: {1, 1},
	OpAdd: {2, 1}, OpSub: {2, 1}, OpMul: {2, 1}, OpDiv: {2, 1}, OpMod: {2, 1}, OpMin: {2, 1}, OpMax: {2, 1},
	OpLt: {2, 1}, OpLe: {2, 1}, OpGt: {2, 1}, OpGe: {2, 1}, OpEq: {2, 1}, OpNe: {2, 1}, OpAnd: {2, 1}, OpOr: {2, 1},
	OpDup: {1, 2}, OpPop: {1, 0}, OpStore: {1, 0}, OpJz: {1, 0}, OpVerdict: {1, 0},
	OpSwap: {2, 2}, OpOver: {2, 3}, OpSelect: {3, 1},
}

// machine is one execution's state. Run keeps it in one variable on its
// stack, off the step loop's registers, which go to pc and sp: the operand
// stack as values and taints indexed by sp (MaxStack bounds it
// dynamically), the locals and loop frames in fixed arrays, and the input
// banks. Only an unverified program past MaxLocals or MaxNesting spills
// into the heap (moreLocals, moreFrames). It holds no slice of its own
// arrays: that would move it to the heap.
type machine struct {
	vals                  [MaxStack]int64
	taint                 [MaxStack]bool
	locals                [MaxLocals]value
	frames                [MaxNesting]loopFrame
	moreLocals            []value
	moreFrames            []loopFrame
	nframes               int
	contribution, private []int64
	trace                 *Trace
}

// local is local slot i, which the caller has checked against p.Locals.
func (m *machine) local(i int64) *value {
	if m.moreLocals != nil {
		return &m.moreLocals[i]
	}
	return &m.locals[i]
}

// frame is the i-th active loop frame, counting from the outermost.
func (m *machine) frame(i int) *loopFrame {
	if i < MaxNesting {
		return &m.frames[i]
	}
	return &m.moreFrames[i-MaxNesting]
}

// Run executes a program over the two input banks. It enforces the same
// safety properties dynamically that Verify proves statically (step budget,
// stack bounds, taint discipline), so even an unverified program cannot
// leak or diverge — it can only fail.
func Run(p *Program, contribution, private []int64, opts *Options) (*Result, error) {
	var m machine
	m.contribution, m.private = contribution, private
	budget := int64(MaxCost)
	if opts != nil {
		if opts.MaxSteps > 0 {
			budget = opts.MaxSteps
		}
		if opts.RecordTrace {
			m.trace = &Trace{}
		}
	}
	var endsBuf [256]int32 // the loop ends of a program up to 256 instructions
	ends, err := matchLoops(p.Code, endsBuf[:])
	if err != nil {
		return nil, err
	}
	if p.Locals > MaxLocals {
		m.moreLocals = make([]value, p.Locals)
	}
	var sp int
	var steps int64

	code := p.Code
	for pc := 0; pc < len(code); {
		if steps++; steps > budget {
			return nil, fmt.Errorf("%w: %d steps", ErrStepBudget, budget)
		}
		ins := code[pc]
		e := effects[ins.Op]
		if sp < e.pops {
			return nil, fmt.Errorf("%w: underflow at pc %d (%s)", ErrStackDepth, pc, ins)
		}
		if sp-e.pops+e.pushes > MaxStack {
			return nil, fmt.Errorf("%w: at pc %d", ErrStackOverflow, pc)
		}

		switch ins.Op {
		case OpHalt:
			return nil, ErrHaltNoVerdict
		case OpPush:
			m.vals[sp], m.taint[sp] = ins.Arg, false
			sp++
		case OpLoadC:
			if ins.Arg < 0 || ins.Arg >= int64(len(m.contribution)) {
				return nil, fmt.Errorf("%w: contribution[%d] of %d", ErrIndexRange, ins.Arg, len(m.contribution))
			}
			m.vals[sp], m.taint[sp] = m.contribution[ins.Arg], true
			sp++
		case OpLoadP:
			if ins.Arg < 0 || ins.Arg >= int64(len(m.private)) {
				return nil, fmt.Errorf("%w: private[%d] of %d", ErrIndexRange, ins.Arg, len(m.private))
			}
			m.vals[sp], m.taint[sp] = m.private[ins.Arg], true
			sp++
		case OpLoadCI:
			idx := m.vals[sp-1]
			if idx < 0 || idx >= int64(len(m.contribution)) {
				return nil, fmt.Errorf("%w: contribution[%d] of %d", ErrIndexRange, idx, len(m.contribution))
			}
			m.vals[sp-1], m.taint[sp-1] = m.contribution[idx], true
		case OpLoadPI:
			idx := m.vals[sp-1]
			if idx < 0 || idx >= int64(len(m.private)) {
				return nil, fmt.Errorf("%w: private[%d] of %d", ErrIndexRange, idx, len(m.private))
			}
			m.vals[sp-1], m.taint[sp-1] = m.private[idx], true
		case OpLenC:
			m.vals[sp], m.taint[sp] = int64(len(m.contribution)), false
			sp++
		case OpLenP:
			m.vals[sp], m.taint[sp] = int64(len(m.private)), false
			sp++
		case OpLoad:
			if ins.Arg < 0 || ins.Arg >= int64(p.Locals) {
				return nil, fmt.Errorf("%w: local %d of %d at pc %d", ErrBadArg, ins.Arg, p.Locals, pc)
			}
			l := m.local(ins.Arg)
			m.vals[sp], m.taint[sp] = l.v, l.secret
			sp++
		case OpStore:
			if ins.Arg < 0 || ins.Arg >= int64(p.Locals) {
				return nil, fmt.Errorf("%w: local %d of %d at pc %d", ErrBadArg, ins.Arg, p.Locals, pc)
			}
			sp--
			*m.local(ins.Arg) = value{v: m.vals[sp], secret: m.taint[sp]}
		case OpIdx:
			k := int(ins.Arg)
			if k < 0 || k >= m.nframes {
				return nil, fmt.Errorf("%w: idx %d with %d active loops at pc %d", ErrBadArg, k, m.nframes, pc)
			}
			m.vals[sp], m.taint[sp] = m.frame(m.nframes-1-k).index, false
			sp++
		case OpAdd:
			sp = m.binary(sp, m.vals[sp-2]+m.vals[sp-1])
		case OpSub:
			sp = m.binary(sp, m.vals[sp-2]-m.vals[sp-1])
		case OpMul:
			sp = m.binary(sp, m.vals[sp-2]*m.vals[sp-1])
		case OpDiv, OpMod:
			if m.vals[sp-1] == 0 {
				return nil, fmt.Errorf("%w at pc %d", ErrDivByZero, pc)
			}
			// Go defines MinInt64 / -1 as MinInt64 and MinInt64 % -1 as 0
			// (two's-complement wrap), so neither panics.
			r := m.vals[sp-2] % m.vals[sp-1]
			if ins.Op == OpDiv {
				r = m.vals[sp-2] / m.vals[sp-1]
			}
			sp = m.binary(sp, r)
		case OpMin:
			sp = m.binary(sp, min(m.vals[sp-2], m.vals[sp-1]))
		case OpMax:
			sp = m.binary(sp, max(m.vals[sp-2], m.vals[sp-1]))
		case OpLt:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] < m.vals[sp-1]))
		case OpLe:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] <= m.vals[sp-1]))
		case OpGt:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] > m.vals[sp-1]))
		case OpGe:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] >= m.vals[sp-1]))
		case OpEq:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] == m.vals[sp-1]))
		case OpNe:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] != m.vals[sp-1]))
		case OpAnd:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] != 0 && m.vals[sp-1] != 0))
		case OpOr:
			sp = m.binary(sp, boolToInt(m.vals[sp-2] != 0 || m.vals[sp-1] != 0))
		case OpNeg:
			m.vals[sp-1] = -m.vals[sp-1]
		case OpAbs:
			if m.vals[sp-1] < 0 {
				m.vals[sp-1] = -m.vals[sp-1]
			}
		case OpNot:
			m.vals[sp-1] = boolToInt(m.vals[sp-1] == 0)
		case OpDup:
			m.vals[sp], m.taint[sp] = m.vals[sp-1], m.taint[sp-1]
			sp++
		case OpPop:
			sp--
		case OpSwap:
			m.vals[sp-2], m.vals[sp-1] = m.vals[sp-1], m.vals[sp-2]
			m.taint[sp-2], m.taint[sp-1] = m.taint[sp-1], m.taint[sp-2]
		case OpOver:
			m.vals[sp], m.taint[sp] = m.vals[sp-2], m.taint[sp-2]
			sp++
		case OpSelect:
			// onTrue, onFalse, cond from the bottom; the result takes the
			// taint of all three.
			if m.vals[sp-1] == 0 {
				m.vals[sp-3] = m.vals[sp-2]
			}
			m.taint[sp-3] = m.taint[sp-3] || m.taint[sp-2] || m.taint[sp-1]
			sp -= 2
		case OpJmp:
			target := int64(pc) + 1 + ins.Arg
			if target < 0 || target > int64(len(code)) {
				return nil, fmt.Errorf("%w: jump to %d at pc %d", ErrJumpTarget, target, pc)
			}
			pc = int(target)
			continue
		case OpJz:
			sp--
			if m.taint[sp] {
				return nil, fmt.Errorf("%w: at pc %d", ErrSecretBranch, pc)
			}
			taken := m.vals[sp] == 0
			if m.trace != nil {
				m.trace.append(taken)
			}
			if taken {
				target := int64(pc) + 1 + ins.Arg
				if target < 0 || target > int64(len(code)) {
					return nil, fmt.Errorf("%w: jump to %d at pc %d", ErrJumpTarget, target, pc)
				}
				pc = int(target)
				continue
			}
		case OpLoop:
			if ins.Arg == 0 {
				pc = int(ends[pc]) + 1
				continue
			}
			if m.nframes >= MaxNesting {
				m.moreFrames = append(m.moreFrames[:m.nframes-MaxNesting], loopFrame{})
			}
			*m.frame(m.nframes) = loopFrame{start: pc, remaining: ins.Arg}
			m.nframes++
		case OpEndLoop:
			if m.nframes == 0 {
				// Reachable only by jumping into a loop body, which the
				// verifier forbids; unverified programs fail cleanly.
				return nil, fmt.Errorf("%w: endloop with no active loop at pc %d", ErrLoopStructure, pc)
			}
			f := m.frame(m.nframes - 1)
			f.remaining--
			if f.remaining > 0 {
				f.index++
				pc = f.start + 1
				continue
			}
			m.nframes--
		case OpDeclass:
			m.taint[sp-1] = false
		case OpVerdict:
			sp--
			if m.taint[sp] {
				return nil, fmt.Errorf("%w: at pc %d", ErrTaintedVerdict, pc)
			}
			return &Result{Verdict: m.vals[sp], Steps: steps, Trace: m.trace}, nil
		default:
			return nil, fmt.Errorf("%w: %s at pc %d", ErrBadOp, ins.Op, pc)
		}
		pc++
	}
	return nil, ErrHaltNoVerdict
}

// binary replaces a binary op's two operands with its result r, tainted
// if either operand was, and returns the new stack pointer.
func (m *machine) binary(sp int, r int64) int {
	m.vals[sp-2], m.taint[sp-2] = r, m.taint[sp-2] || m.taint[sp-1]
	return sp - 1
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
