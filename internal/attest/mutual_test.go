package attest

import (
	"errors"
	"testing"

	"glimmers/internal/tee"
)

// twoEnclaves builds initiator and responder enclaves on (optionally)
// distinct platforms and returns env-runners for each.
func twoEnclaves(t *testing.T) (*tee.AttestationService, tee.Measurement, tee.Measurement, func(func(*tee.Env) error) error, func(func(*tee.Env) error) error) {
	t.Helper()
	// Its own trust root: internal/testbed imports attest (through service).
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) (tee.Measurement, func(func(*tee.Env) error) error) {
		p, err := tee.NewPlatform(as)
		if err != nil {
			t.Fatal(err)
		}
		var pending func(*tee.Env) error
		bin := tee.NewBinary(name, "1", []byte(name)).
			Define("run", func(env *tee.Env, _ []byte) ([]byte, error) {
				return nil, pending(env)
			})
		e, err := p.Load(bin)
		if err != nil {
			t.Fatal(err)
		}
		return bin.Measurement(), func(fn func(*tee.Env) error) error {
			pending = fn
			_, err := e.Call("run", nil)
			return err
		}
	}
	mi, runI := mk("initiator")
	mr, runR := mk("responder")
	return as, mi, mr, runI, runR
}

const mutualContext = "glimmers/test/mutual"

func TestMutualEnclaveHandshake(t *testing.T) {
	as, mi, mr, runI, runR := twoEnclaves(t)
	var (
		key      *EnclaveKey
		hello    Hello
		resp     Hello
		respSess *Session
		initSess *Session
	)
	if err := runI(func(env *tee.Env) error {
		var err error
		key, hello, err = NewEnclaveHello(env, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := runR(func(env *tee.Env) error {
		v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{mi}}
		var err error
		respSess, resp, err = RespondFromEnclave(env, hello, v, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{mr}}
	var err error
	initSess, err = key.CompleteAttested(resp, v)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := initSess.Send([]byte("mask material"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := respSess.Recv(rec)
	if err != nil || string(pt) != "mask material" {
		t.Fatalf("Recv = (%q, %v)", pt, err)
	}
	back, err := respSess.Send([]byte("ack"))
	if err != nil {
		t.Fatal(err)
	}
	if pt, err := initSess.Recv(back); err != nil || string(pt) != "ack" {
		t.Fatalf("Recv = (%q, %v)", pt, err)
	}
}

func TestRespondFromEnclaveRejectsWrongInitiator(t *testing.T) {
	as, _, _, runI, runR := twoEnclaves(t)
	var hello Hello
	if err := runI(func(env *tee.Env) error {
		var err error
		_, hello, err = NewEnclaveHello(env, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := runR(func(env *tee.Env) error {
		v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{{0xEE}}}
		_, _, err := RespondFromEnclave(env, hello, v, mutualContext)
		return err
	})
	if !errors.Is(err, tee.ErrQuoteMeasurement) {
		t.Fatalf("err = %v, want ErrQuoteMeasurement", err)
	}
}

func TestCompleteAttestedRejectsWrongResponder(t *testing.T) {
	as, mi, _, runI, runR := twoEnclaves(t)
	var (
		key   *EnclaveKey
		hello Hello
		resp  Hello
	)
	if err := runI(func(env *tee.Env) error {
		var err error
		key, hello, err = NewEnclaveHello(env, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := runR(func(env *tee.Env) error {
		v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{mi}}
		var err error
		_, resp, err = RespondFromEnclave(env, hello, v, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// The initiator expects a different responder measurement.
	v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{{0xDD}}}
	if _, err := key.CompleteAttested(resp, v); !errors.Is(err, tee.ErrQuoteMeasurement) {
		t.Fatalf("err = %v, want ErrQuoteMeasurement", err)
	}
}

func TestCompleteAttestedRejectsSubstitutedDH(t *testing.T) {
	as, mi, mr, runI, runR := twoEnclaves(t)
	var (
		key   *EnclaveKey
		hello Hello
		resp  Hello
	)
	if err := runI(func(env *tee.Env) error {
		var err error
		key, hello, err = NewEnclaveHello(env, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := runR(func(env *tee.Env) error {
		v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{mi}}
		var err error
		_, resp, err = RespondFromEnclave(env, hello, v, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// MITM swaps the responder's DH value; the quote binding catches it.
	resp.DHPub = append([]byte(nil), resp.DHPub...)
	resp.DHPub[0] ^= 1
	v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{mr}}
	if _, err := key.CompleteAttested(resp, v); !errors.Is(err, ErrBinding) {
		t.Fatalf("err = %v, want ErrBinding", err)
	}
}

func TestMutualHandshakeContextMismatch(t *testing.T) {
	as, mi, _, runI, runR := twoEnclaves(t)
	var hello Hello
	if err := runI(func(env *tee.Env) error {
		var err error
		_, hello, err = NewEnclaveHello(env, mutualContext)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	err := runR(func(env *tee.Env) error {
		v := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{mi}}
		_, _, err := RespondFromEnclave(env, hello, v, "other/context")
		return err
	})
	if !errors.Is(err, ErrContextMismatch) {
		t.Fatalf("err = %v, want ErrContextMismatch", err)
	}
}
