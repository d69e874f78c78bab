package attest

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// handshakeEnv spins up a platform and an enclave whose single ECALL hands
// the test a live Env (simulation-only trick: the closure keeps the Env
// usable during the test body).
func handshakeEnv(t *testing.T, name string) (*tee.AttestationService, *tee.Enclave, tee.Measurement, func(fn func(env *tee.Env) error) error) {
	t.Helper()
	// Its own trust root: internal/testbed imports attest (through service).
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	var pending func(env *tee.Env) error
	bin := tee.NewBinary(name, "1", []byte(name+"-code")).
		Define("run", func(env *tee.Env, input []byte) ([]byte, error) {
			return nil, pending(env)
		})
	e, err := p.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	run := func(fn func(env *tee.Env) error) error {
		pending = fn
		_, err := e.Call("run", nil)
		return err
	}
	return as, e, bin.Measurement(), run
}

const testContext = "glimmers/test/provisioning"

func TestHandshakeEstablishesMatchingSessions(t *testing.T) {
	as, _, m, run := handshakeEnv(t, "glimmer")
	serviceID, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	verifier.Allow(m)

	var enclaveSession *Session
	var peerSession *Session
	err = run(func(env *tee.Env) error {
		key, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		// Round trip through the wire format, as a real deployment would.
		decoded, err := DecodeHello(EncodeHello(hello))
		if err != nil {
			return err
		}
		ps, resp, err := Respond(decoded, verifier, serviceID, testContext)
		if err != nil {
			return err
		}
		peerSession = ps
		decodedResp, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			return err
		}
		enclaveSession, err = key.Complete(decodedResp, serviceID.Public())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// Enclave -> peer.
	record, err := enclaveSession.Send([]byte("validated contribution"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := peerSession.Recv(record)
	if err != nil || string(pt) != "validated contribution" {
		t.Fatalf("peer.Recv = (%q, %v)", pt, err)
	}
	// Peer -> enclave.
	record, err = peerSession.Send([]byte("sealed signing key"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err = enclaveSession.Recv(record)
	if err != nil || string(pt) != "sealed signing key" {
		t.Fatalf("enclave.Recv = (%q, %v)", pt, err)
	}
}

func TestRespondRejectsWrongMeasurement(t *testing.T) {
	as, _, _, run := handshakeEnv(t, "imposter")
	verifier := &tee.QuoteVerifier{Root: as.Root(), Allowed: []tee.Measurement{{0xAA}}}
	err := run(func(env *tee.Env) error {
		_, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		_, _, err = Respond(hello, verifier, nil, testContext)
		return err
	})
	if !errors.Is(err, tee.ErrQuoteMeasurement) {
		t.Fatalf("err = %v, want ErrQuoteMeasurement", err)
	}
}

func TestRespondRejectsContextMismatch(t *testing.T) {
	as, _, _, run := handshakeEnv(t, "glimmer")
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	err := run(func(env *tee.Env) error {
		_, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		_, _, err = Respond(hello, verifier, nil, "glimmers/other/context")
		return err
	})
	if !errors.Is(err, ErrContextMismatch) {
		t.Fatalf("err = %v, want ErrContextMismatch", err)
	}
}

func TestRespondRejectsSubstitutedDHValue(t *testing.T) {
	// A man in the middle replaces the enclave's DH value; the quote binding
	// must catch it.
	as, _, _, run := handshakeEnv(t, "glimmer")
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	mitm, err := xcrypto.NewDHKey()
	if err != nil {
		t.Fatal(err)
	}
	err = run(func(env *tee.Env) error {
		_, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		hello.DHPub = mitm.PublicBytes()
		_, _, err = Respond(hello, verifier, nil, testContext)
		return err
	})
	if !errors.Is(err, ErrBinding) {
		t.Fatalf("err = %v, want ErrBinding", err)
	}
}

func TestCompleteRejectsForgedServiceSignature(t *testing.T) {
	as, _, _, run := handshakeEnv(t, "glimmer")
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	realService, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	err = run(func(env *tee.Env) error {
		key, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		// The imposter responds, signing with its own key.
		_, resp, err := Respond(hello, verifier, imposter, testContext)
		if err != nil {
			return err
		}
		// The enclave expects the real service's key.
		_, err = key.Complete(resp, realService.Public())
		return err
	})
	if !errors.Is(err, ErrPeerSignature) {
		t.Fatalf("err = %v, want ErrPeerSignature", err)
	}
}

func TestCompleteAcceptsAnonymousPeerWhenUnpinned(t *testing.T) {
	as, _, _, run := handshakeEnv(t, "glimmer")
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	err := run(func(env *tee.Env) error {
		key, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		_, resp, err := Respond(hello, verifier, nil, testContext)
		if err != nil {
			return err
		}
		_, err = key.Complete(resp, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func establishedPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	as, _, _, run := handshakeEnv(t, "glimmer")
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	var a, b *Session
	err := run(func(env *tee.Env) error {
		key, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		b2, resp, err := Respond(hello, verifier, nil, testContext)
		if err != nil {
			return err
		}
		b = b2
		a, err = key.Complete(resp, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSessionRejectsReplay(t *testing.T) {
	a, b := establishedPair(t)
	r1, err := a.Send([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(r1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(r1); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay err = %v, want ErrReplay", err)
	}
}

func TestSessionRejectsReordering(t *testing.T) {
	a, b := establishedPair(t)
	r1, err := a.Send([]byte("one"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Send([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(r2); !errors.Is(err, ErrReplay) {
		t.Fatalf("out-of-order err = %v, want ErrReplay", err)
	}
	// The in-order record still works after the failed attempt.
	if _, err := b.Recv(r1); err != nil {
		t.Fatalf("in-order record after failure: %v", err)
	}
	if _, err := b.Recv(r2); err != nil {
		t.Fatalf("next record: %v", err)
	}
}

func TestSessionRejectsTampering(t *testing.T) {
	a, b := establishedPair(t)
	r, err := a.Send([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	r[len(r)-1] ^= 1
	if _, err := b.Recv(r); !errors.Is(err, ErrReplay) {
		t.Fatalf("tampered err = %v, want ErrReplay", err)
	}
}

func TestSessionDirectionsAreIndependent(t *testing.T) {
	a, b := establishedPair(t)
	// A record sent by a must not be accepted by a itself (reflection).
	r, err := a.Send([]byte("reflect"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recv(r); !errors.Is(err, ErrReplay) {
		t.Fatalf("reflection err = %v, want ErrReplay", err)
	}
	// b can still receive it.
	if _, err := b.Recv(r); err != nil {
		t.Fatal(err)
	}
}

func TestTwoHandshakesDeriveDistinctKeys(t *testing.T) {
	a1, _ := establishedPair(t)
	_, b2 := establishedPair(t)
	r, err := a1.Send([]byte("cross-session"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Recv(r); err == nil {
		t.Fatal("record from one session accepted by another")
	}
}

func TestHelloCodecRejectsCorruption(t *testing.T) {
	as, _, _, run := handshakeEnv(t, "glimmer")
	_ = as
	var encoded []byte
	err := run(func(env *tee.Env) error {
		_, hello, err := NewEnclaveHello(env, testContext)
		if err != nil {
			return err
		}
		encoded = EncodeHello(hello)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(encoded) / 3, len(encoded) - 1} {
		if _, err := DecodeHello(encoded[:cut]); err == nil {
			t.Errorf("truncated hello at %d accepted", cut)
		}
	}
	if _, err := DecodeHello(append(encoded, 0)); err == nil {
		t.Error("hello with trailing byte accepted")
	}
}

// Property: the session transports arbitrary payloads faithfully, in order.
func TestQuickSessionTransport(t *testing.T) {
	a, b := establishedPair(t)
	f := func(payloads [][]byte) bool {
		for _, p := range payloads {
			r, err := a.Send(p)
			if err != nil {
				return false
			}
			got, err := b.Recv(r)
			if err != nil || !bytes.Equal(got, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
