package predicate

import (
	"fmt"

	"glimmers/internal/wire"
)

// Encode serializes a program deterministically. The encoding doubles as
// the program's identity: vetting authorities publish SHA-256(Encode(p)).
func Encode(p *Program) []byte {
	w := wire.NewWriter()
	w.String(p.Name)
	w.Uint32(uint32(p.Locals))
	w.Uint32(uint32(len(p.Code)))
	for _, ins := range p.Code {
		w.Byte(byte(ins.Op))
		w.Uint64(uint64(ins.Arg))
	}
	return w.Finish()
}

// Decode reverses Encode.
func Decode(data []byte) (*Program, error) {
	r := wire.NewReader(data)
	p := &Program{Name: r.String(), Locals: int(r.Uint32())}
	n := r.Uint32()
	if n > MaxCode {
		return nil, fmt.Errorf("%w: %d instructions", ErrTooLarge, n)
	}
	p.Code = make([]Instr, n)
	for i := range p.Code {
		p.Code[i] = Instr{Op: Op(r.Byte()), Arg: int64(r.Uint64())}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("predicate: decode: %w", err)
	}
	return p, nil
}
