package predicate

import (
	"errors"
	"fmt"
)

// Verification errors. All are wrapped with position information.
var (
	ErrBadOp          = errors.New("predicate: invalid opcode")
	ErrBadArg         = errors.New("predicate: invalid argument")
	ErrLoopStructure  = errors.New("predicate: malformed loop structure")
	ErrJumpTarget     = errors.New("predicate: invalid jump target")
	ErrStackDepth     = errors.New("predicate: stack discipline violation")
	ErrCostBound      = errors.New("predicate: cost bound exceeded")
	ErrFallsOffEnd    = errors.New("predicate: control can fall off the end")
	ErrNoVerdict      = errors.New("predicate: no reachable verdict")
	ErrInfoFlow       = errors.New("predicate: information-flow violation")
	ErrTooLarge       = errors.New("predicate: program exceeds size limits")
	ErrSecretBranch   = errors.New("predicate: branch on undeclassified secret")
	ErrTaintedVerdict = errors.New("predicate: verdict depends on undeclassified secret")
)

// Analysis is the verifier's certificate: the properties it proved about a
// program. A Glimmer only installs predicates whose Analysis satisfies its
// policy (e.g. at most one declassification site — the single verdict).
type Analysis struct {
	// MaxStackDepth is the proven worst-case operand stack depth.
	MaxStackDepth int
	// CostBound is the proven worst-case instruction count including loop
	// multiplicities: the program always halts within this budget.
	CostBound int64
	// DeclassSites lists the program counters of DECLASS instructions —
	// the complete set of points where secret data may influence output.
	DeclassSites []int
	// ReadsContribution and ReadsPrivate report which input banks the
	// program touches.
	ReadsContribution bool
	ReadsPrivate      bool
	// Verdicts lists the program counters of VERDICT instructions.
	Verdicts []int
}

// stack/taint abstract state per program counter.
type absState struct {
	set    bool
	depth  int
	stack  []bool // taint per operand slot, stack[0] is bottom
	locals []bool // taint per local
	pc     bool   // control-flow taint: true once a secret branch occurred
}

func (s *absState) clone() absState {
	return absState{
		set:    true,
		depth:  s.depth,
		stack:  append([]bool(nil), s.stack...),
		locals: append([]bool(nil), s.locals...),
		pc:     s.pc,
	}
}

// mergeInto joins src into dst (OR on taints), requiring equal depths.
// Reports whether dst changed, or an error on depth mismatch.
func mergeInto(dst *absState, src absState, pc int) (bool, error) {
	if !dst.set {
		*dst = src.clone()
		return true, nil
	}
	if dst.depth != src.depth {
		return false, fmt.Errorf("%w: depth %d vs %d at pc %d", ErrStackDepth, dst.depth, src.depth, pc)
	}
	changed := false
	for i := range dst.stack {
		if src.stack[i] && !dst.stack[i] {
			dst.stack[i] = true
			changed = true
		}
	}
	for i := range dst.locals {
		if src.locals[i] && !dst.locals[i] {
			dst.locals[i] = true
			changed = true
		}
	}
	if src.pc && !dst.pc {
		dst.pc = true
		changed = true
	}
	return changed, nil
}

// matchLoops pairs every OpLoop with the OpEndLoop that closes it: for each
// pair, match[start] is end and match[end] is start (other entries are
// meaningless). It reuses buf when the program fits, so the interpreter can
// match on its stack. Run and Verify both take their loop structure from it.
func matchLoops(code []Instr, buf []int32) ([]int32, error) {
	match := buf
	if len(code) > cap(buf) {
		match = make([]int32, len(code))
	}
	match = match[:len(code)]
	// top is the innermost open loop; an open loop's entry holds the one
	// enclosing it until its end is found.
	top := int32(-1)
	for pc, ins := range code {
		switch ins.Op {
		case OpLoop:
			match[pc], top = top, int32(pc)
		case OpEndLoop:
			if top < 0 {
				return nil, fmt.Errorf("%w: endloop without loop at pc %d", ErrLoopStructure, pc)
			}
			start := top
			top = match[start]
			match[start], match[pc] = int32(pc), start
		}
	}
	if top >= 0 {
		return nil, fmt.Errorf("%w: unclosed loop", ErrLoopStructure)
	}
	return match, nil
}

// Verify statically checks a program and returns its analysis certificate.
// A verified program is guaranteed to terminate within Analysis.CostBound
// steps, never under- or over-flow its stack, and never let secret inputs
// reach the verdict — or influence control flow — except through DECLASS.
func Verify(p *Program) (*Analysis, error) {
	n := len(p.Code)
	if n == 0 {
		return nil, fmt.Errorf("%w: empty program", ErrTooLarge)
	}
	if n > MaxCode {
		return nil, fmt.Errorf("%w: %d instructions", ErrTooLarge, n)
	}
	if p.Locals < 0 || p.Locals > MaxLocals {
		return nil, fmt.Errorf("%w: %d locals", ErrTooLarge, p.Locals)
	}

	analysis := &Analysis{}

	// Pass A: opcode/argument validity and loop nesting.
	nest, err := checkStructure(p, analysis)
	if err != nil {
		return nil, err
	}
	loops, err := matchLoops(p.Code, nil)
	if err != nil {
		return nil, err
	}

	// Jump validity: forward, in range, same nesting level.
	for pc, ins := range p.Code {
		if ins.Op != OpJmp && ins.Op != OpJz {
			continue
		}
		target := pc + 1 + int(ins.Arg)
		if ins.Arg < 0 || target >= n {
			return nil, fmt.Errorf("%w: pc %d -> %d", ErrJumpTarget, pc, target)
		}
		if nest[target] != nest[pc] {
			return nil, fmt.Errorf("%w: pc %d jumps across loop boundary to %d", ErrJumpTarget, pc, target)
		}
		if p.Code[target].Op == OpEndLoop {
			return nil, fmt.Errorf("%w: pc %d jumps onto endloop at %d", ErrJumpTarget, pc, target)
		}
	}

	// Cost bound: instruction count weighted by enclosing loop counts.
	cost, err := costBound(p)
	if err != nil {
		return nil, err
	}
	analysis.CostBound = cost

	// Pass B+C: combined reachability, stack-depth, and taint dataflow.
	if err := dataflow(p, loops, analysis); err != nil {
		return nil, err
	}
	return analysis, nil
}

func checkStructure(p *Program, analysis *Analysis) ([]int, error) {
	n := len(p.Code)
	nest := make([]int, n)
	open := 0
	for pc, ins := range p.Code {
		if ins.Op >= opCount {
			return nil, fmt.Errorf("%w: %d at pc %d", ErrBadOp, ins.Op, pc)
		}
		nest[pc] = open
		switch ins.Op {
		case OpPush:
			// any immediate is fine
		case OpLoadC, OpLoadP:
			if ins.Arg < 0 {
				return nil, fmt.Errorf("%w: negative input index at pc %d", ErrBadArg, pc)
			}
			if ins.Op == OpLoadC {
				analysis.ReadsContribution = true
			} else {
				analysis.ReadsPrivate = true
			}
		case OpLoadCI:
			analysis.ReadsContribution = true
		case OpLoadPI:
			analysis.ReadsPrivate = true
		case OpLoad, OpStore:
			if ins.Arg < 0 || ins.Arg >= int64(p.Locals) {
				return nil, fmt.Errorf("%w: local %d of %d at pc %d", ErrBadArg, ins.Arg, p.Locals, pc)
			}
		case OpIdx:
			if ins.Arg < 0 || ins.Arg >= int64(open) {
				return nil, fmt.Errorf("%w: idx %d with %d enclosing loops at pc %d", ErrBadArg, ins.Arg, open, pc)
			}
		case OpLoop:
			if ins.Arg < 0 || ins.Arg > MaxLoopCount {
				return nil, fmt.Errorf("%w: loop count %d at pc %d", ErrBadArg, ins.Arg, pc)
			}
			if open >= MaxNesting {
				return nil, fmt.Errorf("%w: nesting exceeds %d at pc %d", ErrLoopStructure, MaxNesting, pc)
			}
			open++
		case OpEndLoop:
			if open == 0 {
				return nil, fmt.Errorf("%w: endloop without loop at pc %d", ErrLoopStructure, pc)
			}
			open--
			nest[pc] = open
		case OpDeclass:
			analysis.DeclassSites = append(analysis.DeclassSites, pc)
		case OpVerdict:
			analysis.Verdicts = append(analysis.Verdicts, pc)
		}
	}
	if open != 0 {
		return nil, fmt.Errorf("%w: %d unclosed loops", ErrLoopStructure, open)
	}
	if len(analysis.Verdicts) == 0 {
		return nil, ErrNoVerdict
	}
	return nest, nil
}

func costBound(p *Program) (int64, error) {
	var total int64
	multiplier := int64(1)
	var stack []int64
	for pc := range p.Code {
		switch p.Code[pc].Op {
		case OpLoop:
			stack = append(stack, multiplier)
			count := p.Code[pc].Arg
			// Charge the loop instruction itself once per entry.
			total += multiplier
			if count == 0 {
				multiplier = 0
			} else if multiplier > MaxCost/count {
				return 0, fmt.Errorf("%w: loop at pc %d", ErrCostBound, pc)
			} else {
				multiplier *= count
			}
		case OpEndLoop:
			total += multiplier
			multiplier = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		default:
			total += multiplier
		}
		if total > MaxCost {
			return 0, fmt.Errorf("%w: bound %d exceeds %d", ErrCostBound, total, MaxCost)
		}
	}
	return total, nil
}

// dataflow runs the combined reachability / stack-depth / taint analysis to
// a fixpoint. Loop bodies create the only backward dataflow edges (locals
// mutated by iteration k feed iteration k+1), handled by re-running the
// forward scan until states stabilize.
func dataflow(p *Program, loops []int32, analysis *Analysis) error {
	n := len(p.Code)
	states := make([]absState, n+1) // states[n] = falling off the end

	entry := absState{set: true, locals: make([]bool, p.Locals)}
	if _, err := mergeInto(&states[0], entry, 0); err != nil {
		return err
	}

	// Fixpoint: monotone lattice (taints only flip false->true), so the
	// number of rounds is bounded; cap generously and fail loudly if
	// exceeded (cannot happen for monotone transfer functions).
	maxRounds := 2*(p.Locals+MaxStack) + 4
	for round := 0; ; round++ {
		if round > maxRounds {
			return fmt.Errorf("predicate: taint analysis did not converge (internal error)")
		}
		changed, err := dataflowPass(p, loops, states, analysis)
		if err != nil {
			return err
		}
		if !changed {
			break
		}
	}
	if states[n].set {
		return ErrFallsOffEnd
	}

	// Record the proven max stack depth.
	maxDepth := 0
	for pc := 0; pc < n; pc++ {
		if states[pc].set && states[pc].depth > maxDepth {
			maxDepth = states[pc].depth
		}
	}
	analysis.MaxStackDepth = maxDepth
	return nil
}

func dataflowPass(p *Program, loops []int32, states []absState, analysis *Analysis) (bool, error) {
	n := len(p.Code)
	changed := false
	propagate := func(target int, s absState) error {
		c, err := mergeInto(&states[target], s, target)
		if err != nil {
			return err
		}
		if c {
			changed = true
		}
		return nil
	}

	for pc := 0; pc < n; pc++ {
		in := states[pc]
		if !in.set {
			continue // unreachable (so far)
		}
		ins := p.Code[pc]
		pops := effects[ins.Op].pops
		if in.depth < pops {
			return false, fmt.Errorf("%w: underflow at pc %d (%s)", ErrStackDepth, pc, ins)
		}
		out := in.clone()

		// Pop operand taints (top of stack is the slice end).
		operands := make([]bool, pops)
		for i := pops - 1; i >= 0; i-- {
			operands[i] = out.stack[len(out.stack)-1]
			out.stack = out.stack[:len(out.stack)-1]
			out.depth--
		}
		push := func(taint bool) {
			out.stack = append(out.stack, taint || out.pc)
			out.depth++
		}
		union := func() bool {
			t := false
			for _, o := range operands {
				t = t || o
			}
			return t
		}

		switch ins.Op {
		case OpHalt:
			continue // no successors
		case OpVerdict:
			if operands[0] {
				return false, fmt.Errorf("%w: at pc %d", ErrTaintedVerdict, pc)
			}
			if in.pc {
				return false, fmt.Errorf("%w: verdict under secret control flow at pc %d", ErrInfoFlow, pc)
			}
			continue // halts
		case OpPush, OpLenC, OpLenP, OpIdx:
			push(false)
		case OpLoadC, OpLoadP, OpLoadCI, OpLoadPI:
			push(true)
		case OpLoad:
			push(out.locals[ins.Arg])
		case OpStore:
			out.locals[ins.Arg] = operands[0] || out.pc
		case OpDeclass:
			push(false)
		case OpDup:
			push(operands[0])
			push(operands[0])
		case OpOver:
			push(operands[0])
			push(operands[1])
			push(operands[0])
		case OpSwap:
			push(operands[1])
			push(operands[0])
		case OpPop:
			// discarded
		case OpJmp:
			if err := propagate(pc+1+int(ins.Arg), out); err != nil {
				return false, err
			}
			continue
		case OpJz:
			if operands[0] {
				// Branching on a secret is an implicit flow. The paper's
				// simple-idiom discipline forbids it: secret-dependent
				// choices must use SELECT so control flow stays public.
				return false, fmt.Errorf("%w: at pc %d", ErrSecretBranch, pc)
			}
			if err := propagate(pc+1+int(ins.Arg), out); err != nil {
				return false, err
			}
			// fallthrough successor handled below
		case OpLoop:
			// Successor 1: loop body (if count > 0).
			if ins.Arg > 0 {
				if err := propagate(pc+1, out); err != nil {
					return false, err
				}
			}
			// Successor 2: after the loop (count could be zero; also the
			// normal exit). Stack must be balanced, which the EndLoop
			// transfer enforces.
			if err := propagate(int(loops[pc])+1, out); err != nil {
				return false, err
			}
			continue
		case OpEndLoop:
			// Net-zero stack effect across the body: depth here must match
			// depth at the loop header.
			header := int(loops[pc])
			if states[header].set && in.depth != states[header].depth {
				return false, fmt.Errorf("%w: loop body at pc %d changes stack depth (%d -> %d)",
					ErrStackDepth, header, states[header].depth, in.depth)
			}
			// Back edge: next iteration sees this state at the body entry.
			if err := propagate(header+1, out); err != nil {
				return false, err
			}
			// Exit edge: after the loop.
			if err := propagate(pc+1, out); err != nil {
				return false, err
			}
			continue
		default:
			// Arithmetic / comparison / logic: result taint is the union.
			push(union())
		}

		if out.depth > MaxStack {
			return false, fmt.Errorf("%w: depth %d exceeds %d at pc %d", ErrStackDepth, out.depth, MaxStack, pc)
		}
		if err := propagate(pc+1, out); err != nil {
			return false, err
		}
	}
	return changed, nil
}
