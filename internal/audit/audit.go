// Package audit implements the §4.1 runtime auditor: the component that
// convinces a *user* that a Glimmer running confidential (encrypted,
// unauditable) validation logic still cannot exfiltrate their private data.
//
// The mechanism is the one the paper proposes: the message format between
// Glimmer and service is public; the auditor checks every outbound message
// is well formed against that format and counts the attacker-controllable
// information in it. For the bot-detection verdict that capacity is exactly
// one bit ("a single bit plus a well-defined signature and challenge
// response"). The paper is explicit that this does not preclude covert
// channels inside unavoidable variable fields like signatures — it puts a
// hard upper bound on everything else, and the auditor reports the two
// numbers separately.
package audit

import (
	"bytes"
	"errors"
	"fmt"

	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// FieldKind classifies one field of a public message format.
type FieldKind int

const (
	// KindConst is a fixed byte string (headers, service names). Carries
	// zero information.
	KindConst FieldKind = iota
	// KindExpected is a variable field whose value the auditor knows in
	// advance for each message (a challenge echo). Carries zero
	// information when it matches.
	KindExpected
	// KindBool is a canonical one-byte boolean. Carries exactly one bit.
	KindBool
	// KindSignature is a bounded variable field that cannot be predicted:
	// signatures are randomized, because every xcrypto signature opens with
	// a fresh salt the signer draws and then signs over. It is the residual
	// covert channel the paper acknowledges; the auditor bounds its length
	// and reports it.
	KindSignature
)

// Field describes one field of a format.
type Field struct {
	Name string
	Kind FieldKind
	// Const is the required value for KindConst fields.
	Const []byte
	// MaxLen bounds KindSignature fields.
	MaxLen int
}

// Format is a public message format: an ordered field list over the wire
// encoding.
type Format struct {
	Name   string
	Fields []Field
}

// Report is the auditor's verdict on one message.
type Report struct {
	// InfoBits is the information carried by the message outside the
	// signature channel — the "hard upper bound" of §4.1.
	InfoBits int
	// SignatureBytes is the size of the residual signature channel.
	SignatureBytes int
}

// Audit errors.
var (
	ErrMalformed    = errors.New("audit: message violates public format")
	ErrOversized    = errors.New("audit: variable field exceeds bound")
	ErrConstMangled = errors.New("audit: constant field altered")
	ErrEchoMangled  = errors.New("audit: expected field does not match")
	ErrMissingecho  = errors.New("audit: no expected value supplied")
)

// CapacityBits returns the format's worst-case information content outside
// signature fields: the bound the auditor enforces per message.
func (f *Format) CapacityBits() int {
	bits := 0
	for _, fd := range f.Fields {
		if fd.Kind == KindBool {
			bits++
		}
	}
	return bits
}

// Check validates one message against the format. expected supplies the
// required values for KindExpected fields by name. On success the report
// states exactly how much information left the Glimmer.
func (f *Format) Check(msg []byte, expected map[string][]byte) (Report, error) {
	r := wire.NewReader(msg)
	var rep Report
	for _, fd := range f.Fields {
		switch fd.Kind {
		case KindConst:
			got := r.Bytes()
			if r.Err() != nil {
				return rep, fmt.Errorf("%w: field %s: %v", ErrMalformed, fd.Name, r.Err())
			}
			if !bytes.Equal(got, fd.Const) {
				return rep, fmt.Errorf("%w: field %s", ErrConstMangled, fd.Name)
			}
		case KindExpected:
			got := r.Bytes()
			if r.Err() != nil {
				return rep, fmt.Errorf("%w: field %s: %v", ErrMalformed, fd.Name, r.Err())
			}
			want, ok := expected[fd.Name]
			if !ok {
				return rep, fmt.Errorf("%w: field %s", ErrMissingecho, fd.Name)
			}
			if !bytes.Equal(got, want) {
				return rep, fmt.Errorf("%w: field %s", ErrEchoMangled, fd.Name)
			}
		case KindBool:
			r.Bool()
			if r.Err() != nil {
				return rep, fmt.Errorf("%w: field %s: %v", ErrMalformed, fd.Name, r.Err())
			}
			rep.InfoBits++
		case KindSignature:
			got := r.Bytes()
			if r.Err() != nil {
				return rep, fmt.Errorf("%w: field %s: %v", ErrMalformed, fd.Name, r.Err())
			}
			if fd.MaxLen > 0 && len(got) > fd.MaxLen {
				return rep, fmt.Errorf("%w: field %s is %d bytes (max %d)", ErrOversized, fd.Name, len(got), fd.MaxLen)
			}
			rep.SignatureBytes += len(got)
		default:
			return rep, fmt.Errorf("audit: unknown field kind %d in format %s", fd.Kind, f.Name)
		}
	}
	if err := r.Done(); err != nil {
		return rep, fmt.Errorf("%w: trailing content: %v", ErrMalformed, err)
	}
	return rep, nil
}

// VerdictFormat is the public format of the §4.1 bot-detection verdict
// message produced by glimmer.EncodeVerdict: header, service name,
// challenge echo, one bit, signature. CapacityBits() == 1. The signature
// bound is the scheme's own: every signature a Glimmer produces is exactly
// xcrypto.SignatureSize bytes.
func VerdictFormat(serviceName string) *Format {
	return &Format{
		Name: "glimmers/verdict/v1",
		Fields: []Field{
			{Name: "header", Kind: KindConst, Const: []byte("glimmers/verdict/v1")},
			{Name: "service", Kind: KindConst, Const: []byte(serviceName)},
			{Name: "challenge", Kind: KindExpected},
			{Name: "verdict", Kind: KindBool},
			{Name: "signature", Kind: KindSignature, MaxLen: xcrypto.SignatureSize},
		},
	}
}
