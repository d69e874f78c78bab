package predicate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"glimmers/internal/xcrypto"
)

// listing prints a program one instruction per line, for a failure message;
// a jump's operand is relative to the next pc.
func listing(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; program %q, %d locals\n", p.Name, p.Locals)
	for pc, ins := range p.Code {
		fmt.Fprintf(&sb, "%4d  %s\n", pc, ins)
	}
	return sb.String()
}

// randomProgram draws an arbitrary (usually invalid) program from the PRG.
// Arguments are biased toward small values so a useful fraction of programs
// pass structural checks.
func randomProgram(prg *xcrypto.PRG) *Program {
	n := prg.Intn(20) + 1
	code := make([]Instr, 0, n)
	for i := 0; i < n; i++ {
		op := Op(prg.Intn(int(opCount)))
		var arg int64
		if op.hasArg() {
			arg = int64(prg.Intn(6))
			if op == OpPush && prg.Intn(2) == 0 {
				arg = int64(prg.Uint64()) // occasionally huge immediates
			}
		}
		code = append(code, Instr{Op: op, Arg: arg})
	}
	return &Program{Name: "fuzz", Code: code, Locals: prg.Intn(4)}
}

// TestVerifierSoundnessFuzz is the soundness property behind the paper's
// verification claim: for ANY program the static verifier accepts, the
// interpreter (1) terminates within the proven cost bound, (2) never
// reports a dynamic taint or secret-branch violation (those were proven
// absent), and (3) never panics. Programs the verifier rejects are simply
// skipped — rejection is always safe.
func TestVerifierSoundnessFuzz(t *testing.T) {
	prg := xcrypto.NewPRG([]byte("verifier-soundness"))
	contribution := []int64{3, -7, 42, 0, 1}
	private := []int64{9, 9, 9}
	verified := 0
	const samples = 30000
	for i := 0; i < samples; i++ {
		p := randomProgram(prg)
		analysis, err := Verify(p)
		if err != nil {
			continue
		}
		verified++
		res, err := Run(p, contribution, private, &Options{MaxSteps: analysis.CostBound})
		if err == nil {
			if res.Steps > analysis.CostBound {
				t.Fatalf("program %v: steps %d exceed proven bound %d", p.Code, res.Steps, analysis.CostBound)
			}
			continue
		}
		// Runtime faults on data (division, dynamic indexing) are allowed;
		// violations of statically proven properties are not.
		switch {
		case errors.Is(err, ErrTaintedVerdict), errors.Is(err, ErrSecretBranch):
			t.Fatalf("verified program violated taint at runtime: %v\n%s", err, listing(p))
		case errors.Is(err, ErrStepBudget):
			t.Fatalf("verified program exceeded its proven cost bound: %v\n%s", err, listing(p))
		case errors.Is(err, ErrStackDepth), errors.Is(err, ErrStackOverflow):
			t.Fatalf("verified program violated stack discipline at runtime: %v\n%s", err, listing(p))
		case errors.Is(err, ErrDivByZero), errors.Is(err, ErrIndexRange), errors.Is(err, ErrHaltNoVerdict), errors.Is(err, ErrBadArg):
			// acceptable data-dependent faults
		default:
			t.Fatalf("verified program failed unexpectedly: %v\n%s", err, listing(p))
		}
	}
	if verified < 50 {
		t.Fatalf("only %d/%d random programs verified — fuzz coverage too thin", verified, samples)
	}
	t.Logf("fuzz: %d/%d random programs verified and ran soundly", verified, samples)
}

// TestVerifierRejectionIsTotal: Verify never panics on arbitrary programs.
func TestVerifierRejectionIsTotal(t *testing.T) {
	prg := xcrypto.NewPRG([]byte("verifier-total"))
	for i := 0; i < 50000; i++ {
		p := randomProgram(prg)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Verify panicked on %v: %v", p.Code, r)
				}
			}()
			_, _ = Verify(p)
		}()
	}
}

// TestInterpreterTotalOnUnverified: Run never panics even on programs that
// failed (or skipped) verification — dynamic checks catch everything.
func TestInterpreterTotalOnUnverified(t *testing.T) {
	prg := xcrypto.NewPRG([]byte("interp-total"))
	contribution := []int64{1, 2}
	for i := 0; i < 50000; i++ {
		p := randomProgram(prg)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Run panicked on %v: %v", p.Code, r)
				}
			}()
			_, _ = Run(p, contribution, nil, &Options{MaxSteps: 10000})
		}()
	}
}
