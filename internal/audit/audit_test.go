package audit

import (
	"errors"
	"testing"
	"testing/quick"

	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

func verdictMsg(header, svc string, challenge []byte, bit byte, sig []byte) []byte {
	return wire.NewWriter().
		String(header).
		String(svc).
		Bytes(challenge).
		Byte(bit).
		Bytes(sig).
		Finish()
}

func TestVerdictFormatAcceptsCanonicalMessage(t *testing.T) {
	f := VerdictFormat("svc.example")
	msg := verdictMsg("glimmers/verdict/v1", "svc.example", []byte("nonce"), 1, make([]byte, xcrypto.SignatureSize))
	rep, err := f.Check(msg, map[string][]byte{"challenge": []byte("nonce")})
	if err != nil {
		t.Fatal(err)
	}
	if rep.InfoBits != 1 {
		t.Fatalf("InfoBits = %d, want 1", rep.InfoBits)
	}
	if rep.SignatureBytes != xcrypto.SignatureSize {
		t.Fatalf("SignatureBytes = %d, want %d", rep.SignatureBytes, xcrypto.SignatureSize)
	}
	if f.CapacityBits() != 1 {
		t.Fatalf("CapacityBits = %d, want 1", f.CapacityBits())
	}
}

func TestVerdictFormatRejectsCovertChannels(t *testing.T) {
	f := VerdictFormat("svc")
	challenge := []byte("nonce")
	expected := map[string][]byte{"challenge": challenge}
	cases := []struct {
		name string
		msg  []byte
		want error
	}{
		{
			// Information smuggled into the header.
			"altered header",
			verdictMsg("glimmers/verdict/v2", "svc", challenge, 1, nil),
			ErrConstMangled,
		},
		{
			// Information smuggled into the service name.
			"altered service",
			verdictMsg("glimmers/verdict/v1", "svc2", challenge, 1, nil),
			ErrConstMangled,
		},
		{
			// Information smuggled into the challenge echo.
			"altered challenge",
			verdictMsg("glimmers/verdict/v1", "svc", []byte("other"), 1, nil),
			ErrEchoMangled,
		},
		{
			// A boolean carrying more than one bit.
			"non-canonical bool",
			verdictMsg("glimmers/verdict/v1", "svc", challenge, 7, nil),
			ErrMalformed,
		},
		{
			// One byte more than the scheme's signatures ever are.
			"oversized signature",
			verdictMsg("glimmers/verdict/v1", "svc", challenge, 1, make([]byte, xcrypto.SignatureSize+1)),
			ErrOversized,
		},
		{
			// Bytes appended after the last field.
			"trailing bytes",
			append(verdictMsg("glimmers/verdict/v1", "svc", challenge, 1, nil), 0xFF),
			ErrMalformed,
		},
		{
			"truncated",
			verdictMsg("glimmers/verdict/v1", "svc", challenge, 1, nil)[:10],
			ErrMalformed,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := f.Check(c.msg, expected); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

func TestCheckRequiresExpectedValues(t *testing.T) {
	f := VerdictFormat("svc")
	msg := verdictMsg("glimmers/verdict/v1", "svc", []byte("nonce"), 0, nil)
	if _, err := f.Check(msg, nil); !errors.Is(err, ErrMissingecho) {
		t.Fatalf("err = %v, want ErrMissingecho", err)
	}
}

func TestCapacityCountsBools(t *testing.T) {
	f := &Format{Name: "multi", Fields: []Field{
		{Name: "a", Kind: KindBool},
		{Name: "b", Kind: KindBool},
		{Name: "hdr", Kind: KindConst, Const: []byte("x")},
	}}
	if f.CapacityBits() != 2 {
		t.Fatalf("CapacityBits = %d, want 2", f.CapacityBits())
	}
	msg := wire.NewWriter().Bool(true).Bool(false).String("x").Finish()
	rep, err := f.Check(msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.InfoBits != 2 {
		t.Fatalf("InfoBits = %d, want 2", rep.InfoBits)
	}
}

// Property: for any bit value and any signature up to the bound, the
// canonical message passes and reports exactly one bit; any trailing byte
// fails.
func TestQuickVerdictFormatBound(t *testing.T) {
	f := VerdictFormat("svc")
	check := func(bit bool, sigLen uint8, challenge []byte) bool {
		b := byte(0)
		if bit {
			b = 1
		}
		sig := make([]byte, int(sigLen)%(xcrypto.SignatureSize+1))
		msg := verdictMsg("glimmers/verdict/v1", "svc", challenge, b, sig)
		rep, err := f.Check(msg, map[string][]byte{"challenge": challenge})
		if err != nil || rep.InfoBits != 1 {
			return false
		}
		_, err = f.Check(append(msg, 0), map[string][]byte{"challenge": challenge})
		return err != nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
