package tee

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"glimmers/internal/xcrypto"
)

func testPlatform(t *testing.T) (*AttestationService, *Platform) {
	t.Helper()
	as, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	return as, p
}

func echoBinary() *Binary {
	return NewBinary("echo", "1.0", []byte("echo-code-v1")).
		Define("echo", func(env *Env, input []byte) ([]byte, error) {
			return input, nil
		})
}

func TestMeasurementStableAndSensitive(t *testing.T) {
	base := func() *Binary { return NewBinary("g", "1", []byte("code")).Define("run", nil) }
	m := base().Measurement()
	if m != base().Measurement() {
		t.Fatal("measurement not stable across identical binaries")
	}
	variants := map[string]*Binary{
		"name":    NewBinary("g2", "1", []byte("code")).Define("run", nil),
		"version": NewBinary("g", "2", []byte("code")).Define("run", nil),
		"code":    NewBinary("g", "1", []byte("code2")).Define("run", nil),
		"ecalls":  NewBinary("g", "1", []byte("code")).Define("run", nil).Define("extra", nil),
	}
	for what, b := range variants {
		if b.Measurement() == m {
			t.Errorf("changing %s did not change measurement", what)
		}
	}
}

func TestMeasurementIndependentOfDefinitionOrder(t *testing.T) {
	a := NewBinary("g", "1", []byte("c")).Define("x", nil).Define("y", nil)
	b := NewBinary("g", "1", []byte("c")).Define("y", nil).Define("x", nil)
	if a.Measurement() != b.Measurement() {
		t.Fatal("ECALL definition order changed measurement")
	}
}

func TestDuplicateECallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBinary("g", "1", nil).Define("run", nil).Define("run", nil)
}

func TestLoadRequiresECalls(t *testing.T) {
	_, p := testPlatform(t)
	if _, err := p.Load(NewBinary("empty", "1", nil)); err == nil {
		t.Fatal("loaded a binary with no ECALLs")
	}
}

func TestECallDispatch(t *testing.T) {
	_, p := testPlatform(t)
	e, err := p.Load(echoBinary())
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Call("echo", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "hello" {
		t.Fatalf("echo = %q", out)
	}
	if _, err := e.Call("missing", nil); !errors.Is(err, ErrNoSuchECall) {
		t.Fatalf("missing ECALL: err = %v", err)
	}
}

func TestDestroyedEnclaveRejectsCalls(t *testing.T) {
	_, p := testPlatform(t)
	e, err := p.Load(echoBinary())
	if err != nil {
		t.Fatal(err)
	}
	e.Destroy()
	if _, err := e.Call("echo", nil); !errors.Is(err, ErrDestroyed) {
		t.Fatalf("err = %v, want ErrDestroyed", err)
	}
}

func TestBufferIsolationAcrossBoundary(t *testing.T) {
	var insideSaw []byte
	b := NewBinary("iso", "1", []byte("c")).
		Define("keep", func(env *Env, input []byte) ([]byte, error) {
			insideSaw = input
			return input, nil
		})
	_, p := testPlatform(t)
	e, err := p.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	hostBuf := []byte("original")
	out, err := e.Call("keep", hostBuf)
	if err != nil {
		t.Fatal(err)
	}
	hostBuf[0] = 'X' // host mutates its buffer after the call
	if insideSaw[0] == 'X' {
		t.Fatal("enclave input aliases host memory (TOCTOU)")
	}
	out[0] = 'Y' // host mutates the output
	if insideSaw[0] == 'Y' {
		t.Fatal("enclave-held buffer aliases returned output")
	}
}

func TestReentrantECallRejected(t *testing.T) {
	_, p := testPlatform(t)
	var e *Enclave
	b := NewBinary("re", "1", []byte("c")).
		Define("outer", func(env *Env, input []byte) ([]byte, error) {
			_, err := e.Call("outer", nil)
			if !errors.Is(err, ErrReentrant) {
				t.Errorf("nested call err = %v, want ErrReentrant", err)
			}
			return nil, nil
		})
	var err error
	e, err = p.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("outer", nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrivateStoreAndEPCBudget(t *testing.T) {
	b := NewBinary("mem", "1", []byte("c")).
		Define("put", func(env *Env, input []byte) ([]byte, error) {
			return nil, env.Put("k", input)
		}).
		Define("get", func(env *Env, input []byte) ([]byte, error) {
			v, ok := env.Get("k")
			if !ok {
				return nil, errors.New("missing")
			}
			return v, nil
		}).
		Define("del", func(env *Env, input []byte) ([]byte, error) {
			env.Delete("k")
			return nil, nil
		})
	_, p := testPlatform(t)
	e, err := p.Load(b, WithEPCBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("put", bytes.Repeat([]byte("a"), 32)); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	got, err := e.Call("get", nil)
	if err != nil || len(got) != 32 {
		t.Fatalf("get = (%d bytes, %v)", len(got), err)
	}
	if _, err := e.Call("put", bytes.Repeat([]byte("a"), 128)); !errors.Is(err, ErrEPCExhausted) {
		t.Fatalf("over budget: err = %v, want ErrEPCExhausted", err)
	}
	// Replacing the existing value within budget must still work.
	if _, err := e.Call("put", bytes.Repeat([]byte("b"), 40)); err != nil {
		t.Fatalf("replace within budget: %v", err)
	}
	if _, err := e.Call("del", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("get", nil); err == nil {
		t.Fatal("value survived delete")
	}
}

func TestOCallMediation(t *testing.T) {
	b := NewBinary("oc", "1", []byte("c")).
		Define("fetch", func(env *Env, input []byte) ([]byte, error) {
			return env.OCall("host.read", input)
		}).
		Define("fetchMissing", func(env *Env, input []byte) ([]byte, error) {
			return env.OCall("host.nope", input)
		})
	_, p := testPlatform(t)
	e, err := p.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	e.ProvideOCall("host.read", func(input []byte) ([]byte, error) {
		return append([]byte("host:"), input...), nil
	})
	out, err := e.Call("fetch", []byte("x"))
	if err != nil || string(out) != "host:x" {
		t.Fatalf("fetch = (%q, %v)", out, err)
	}
	if _, err := e.Call("fetchMissing", nil); err == nil {
		t.Fatal("missing OCALL should fail")
	}
	stats := e.Stats()
	if stats.OCalls != 1 {
		t.Fatalf("OCalls = %d, want 1", stats.OCalls)
	}
}

func TestTransitionStats(t *testing.T) {
	_, p := testPlatform(t)
	e, err := p.Load(echoBinary())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Call("echo", []byte("abcd")); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.ECalls != 5 {
		t.Errorf("ECalls = %d, want 5", s.ECalls)
	}
	if s.BytesIn != 20 || s.BytesOut != 20 {
		t.Errorf("BytesIn/Out = %d/%d, want 20/20", s.BytesIn, s.BytesOut)
	}
}

func TestTransitionCostAccumulates(t *testing.T) {
	_, p := testPlatform(t)
	e, err := p.Load(echoBinary(), WithTransitionCost(time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("echo", nil); err != nil {
		t.Fatal(err)
	}
	if e.Stats().SimulatedOverhead < 2*time.Microsecond {
		t.Errorf("SimulatedOverhead = %v, want >= 2µs", e.Stats().SimulatedOverhead)
	}
}

func TestOnInitRunsOnceBeforeECalls(t *testing.T) {
	b := NewBinary("init", "1", []byte("c")).
		OnInit(func(env *Env, input []byte) ([]byte, error) {
			return nil, env.Put("cfg", input)
		}).
		Define("cfg", func(env *Env, input []byte) ([]byte, error) {
			v, _ := env.Get("cfg")
			return v, nil
		})
	_, p := testPlatform(t)
	e, err := p.Load(b, WithInitInput([]byte("configured")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Call("cfg", nil)
	if err != nil || string(out) != "configured" {
		t.Fatalf("cfg = (%q, %v)", out, err)
	}
	if e.Stats().ECalls != 1 {
		t.Errorf("init was charged as an ECALL")
	}
}

func TestInitFailureAbortsLoad(t *testing.T) {
	b := NewBinary("badinit", "1", []byte("c")).
		OnInit(func(env *Env, input []byte) ([]byte, error) {
			return nil, errors.New("refuse")
		}).
		Define("x", nil)
	_, p := testPlatform(t)
	if _, err := p.Load(b); err == nil {
		t.Fatal("load succeeded despite failing init")
	}
}

func sealBinary(name string) *Binary {
	return NewBinary(name, "1", []byte(name+"-code")).
		Define("seal", func(env *Env, input []byte) ([]byte, error) {
			return env.Seal(input, []byte("ad"), SealToMeasurement)
		}).
		Define("unseal", func(env *Env, input []byte) ([]byte, error) {
			return env.Unseal(input, []byte("ad"), SealToMeasurement)
		}).
		Define("sealSigner", func(env *Env, input []byte) ([]byte, error) {
			return env.Seal(input, []byte("ad"), SealToSigner)
		}).
		Define("unsealSigner", func(env *Env, input []byte) ([]byte, error) {
			return env.Unseal(input, []byte("ad"), SealToSigner)
		})
}

func TestSealUnsealSameMeasurement(t *testing.T) {
	_, p := testPlatform(t)
	e1, err := p.Load(sealBinary("s"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := e1.Call("seal", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	// A second instance of the same binary on the same platform can unseal.
	e2, err := p.Load(sealBinary("s"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := e2.Call("unseal", sealed)
	if err != nil || string(pt) != "secret" {
		t.Fatalf("unseal = (%q, %v)", pt, err)
	}
}

func TestSealRejectsOtherMeasurement(t *testing.T) {
	_, p := testPlatform(t)
	e1, err := p.Load(sealBinary("s"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := e1.Call("seal", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Load(sealBinary("different"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Call("unseal", sealed); err == nil {
		t.Fatal("different measurement unsealed the blob")
	}
}

func TestSealRejectsOtherPlatform(t *testing.T) {
	as, p1 := testPlatform(t)
	p2, err := NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := p1.Load(sealBinary("s"))
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := e1.Call("seal", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p2.Load(sealBinary("s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Call("unseal", sealed); err == nil {
		t.Fatal("same code on another platform unsealed the blob")
	}
}

func TestSealToSigner(t *testing.T) {
	signer, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	_, p := testPlatform(t)
	v1 := sealBinary("app-v1")
	v1.SetSigner(signer.Public())
	v2 := sealBinary("app-v2")
	v2.SetSigner(signer.Public())
	e1, err := p.Load(v1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.Load(v2)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := e1.Call("sealSigner", []byte("migrate me"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := e2.Call("unsealSigner", sealed)
	if err != nil || string(pt) != "migrate me" {
		t.Fatalf("cross-version unseal = (%q, %v)", pt, err)
	}
	// But measurement-policy data must not migrate.
	sealedM, err := e1.Call("seal", []byte("pinned"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Call("unseal", sealedM); err == nil {
		t.Fatal("measurement-sealed blob unsealed by different version")
	}
}

func TestSealToSignerRequiresSigner(t *testing.T) {
	_, p := testPlatform(t)
	e, err := p.Load(sealBinary("unsigned"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("sealSigner", []byte("x")); err == nil {
		t.Fatal("unsigned binary sealed under signer policy")
	}
}

func reportBinary() *Binary {
	return NewBinary("rep", "1", []byte("rep-code")).
		Define("report", func(env *Env, input []byte) ([]byte, error) {
			r, err := env.NewReport(input)
			if err != nil {
				return nil, err
			}
			return encodeReportForTest(r), nil
		}).
		Define("verify", func(env *Env, input []byte) ([]byte, error) {
			r := decodeReportForTest(input)
			if env.VerifyReport(r) {
				return []byte{1}, nil
			}
			return []byte{0}, nil
		})
}

// Crude fixed-width codec for shuttling reports through []byte ECALLs in
// tests; production code uses the wire package.
func encodeReportForTest(r Report) []byte {
	out := make([]byte, 0, 32+32+16+64+32)
	out = append(out, r.Measurement[:]...)
	out = append(out, r.Signer[:]...)
	out = append(out, r.Platform[:]...)
	out = append(out, r.Data[:]...)
	out = append(out, r.MAC[:]...)
	return out
}

func decodeReportForTest(b []byte) Report {
	var r Report
	copy(r.Measurement[:], b[0:32])
	copy(r.Signer[:], b[32:64])
	copy(r.Platform[:], b[64:80])
	copy(r.Data[:], b[80:144])
	copy(r.MAC[:], b[144:176])
	return r
}

func TestLocalAttestationAcrossEnclaves(t *testing.T) {
	_, p := testPlatform(t)
	a, err := p.Load(reportBinary())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Load(reportBinary())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := a.Call("report", []byte("channel binding"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := b.Call("verify", rb)
	if err != nil || ok[0] != 1 {
		t.Fatalf("same-platform verify = (%v, %v), want true", ok, err)
	}
	// Tampered data must fail.
	rb[81] ^= 1
	ok, err = b.Call("verify", rb)
	if err != nil || ok[0] != 0 {
		t.Fatalf("tampered verify = (%v, %v), want false", ok, err)
	}
}

func TestLocalAttestationRejectsOtherPlatform(t *testing.T) {
	as, p1 := testPlatform(t)
	p2, err := NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p1.Load(reportBinary())
	if err != nil {
		t.Fatal(err)
	}
	b, err := p2.Load(reportBinary())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := a.Call("report", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := b.Call("verify", rb)
	if err != nil || ok[0] != 0 {
		t.Fatalf("cross-platform verify = (%v, %v), want false", ok, err)
	}
}

func TestReportDataSizeLimit(t *testing.T) {
	_, p := testPlatform(t)
	e, err := p.Load(reportBinary())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("report", bytes.Repeat([]byte("a"), ReportDataSize+1)); err == nil {
		t.Fatal("oversized report data accepted")
	}
}

// quoteFromEnclave loads a binary with an ECALL that produces a quote and
// returns it directly (tests only: the closure smuggles the quote out).
func quoteFromEnclave(t *testing.T, p *Platform, name string, data []byte) (Quote, Measurement) {
	t.Helper()
	var q Quote
	b := NewBinary(name, "1", []byte(name+"-code")).
		Define("quote", func(env *Env, input []byte) ([]byte, error) {
			var err error
			q, err = env.NewQuote(input)
			return nil, err
		})
	e, err := p.Load(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("quote", data); err != nil {
		t.Fatal(err)
	}
	return q, e.Measurement()
}

func TestQuoteVerifyChain(t *testing.T) {
	as, p := testPlatform(t)
	q, m := quoteFromEnclave(t, p, "gl", []byte("dh-binding"))
	v := &QuoteVerifier{Root: as.Root()}
	if err := v.Verify(q); err != nil {
		t.Fatalf("valid quote rejected: %v", err)
	}
	var want [ReportDataSize]byte
	copy(want[:], "dh-binding")
	if q.Report.Data != want {
		t.Fatal("report data does not round trip")
	}
	if q.Report.Measurement != m {
		t.Fatal("quote measurement mismatch")
	}
}

func TestQuoteAllowlist(t *testing.T) {
	as, p := testPlatform(t)
	q, m := quoteFromEnclave(t, p, "vetted", nil)
	v := &QuoteVerifier{Root: as.Root()}
	v.Allow(m)
	if err := v.Verify(q); err != nil {
		t.Fatalf("allowlisted quote rejected: %v", err)
	}
	other := &QuoteVerifier{Root: as.Root(), Allowed: []Measurement{{1, 2, 3}}}
	if err := other.Verify(q); !errors.Is(err, ErrQuoteMeasurement) {
		t.Fatalf("err = %v, want ErrQuoteMeasurement", err)
	}
}

func TestQuoteTamperDetection(t *testing.T) {
	as, p := testPlatform(t)
	q, _ := quoteFromEnclave(t, p, "gl", []byte("bind"))
	v := &QuoteVerifier{Root: as.Root()}

	tampered := q
	tampered.Report.Data[0] ^= 1
	if err := v.Verify(tampered); !errors.Is(err, ErrQuoteSignature) {
		t.Errorf("tampered data: err = %v, want ErrQuoteSignature", err)
	}

	tampered = q
	tampered.Report.Measurement[0] ^= 1
	if err := v.Verify(tampered); !errors.Is(err, ErrQuoteSignature) {
		t.Errorf("tampered measurement: err = %v, want ErrQuoteSignature", err)
	}

	tampered = q
	tampered.Cert.PlatformID[0] ^= 1
	if err := v.Verify(tampered); err == nil {
		t.Error("tampered cert accepted")
	}
}

func TestQuoteRejectsForeignRoot(t *testing.T) {
	_, p := testPlatform(t)
	q, _ := quoteFromEnclave(t, p, "gl", nil)
	otherAS, err := NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	v := &QuoteVerifier{Root: otherAS.Root()}
	if err := v.Verify(q); !errors.Is(err, ErrQuoteCert) {
		t.Fatalf("err = %v, want ErrQuoteCert", err)
	}
}

func TestQuoteRevocation(t *testing.T) {
	as, p := testPlatform(t)
	q, _ := quoteFromEnclave(t, p, "gl", nil)
	v := &QuoteVerifier{Root: as.Root(), Revoked: as.IsRevoked}
	if err := v.Verify(q); err != nil {
		t.Fatalf("pre-revocation: %v", err)
	}
	as.Revoke(p.ID())
	if err := v.Verify(q); !errors.Is(err, ErrQuoteRevoked) {
		t.Fatalf("post-revocation err = %v, want ErrQuoteRevoked", err)
	}
}

func TestMonotonicCountersSurviveEnclave(t *testing.T) {
	_, p := testPlatform(t)
	counterBin := func() *Binary {
		return NewBinary("ctr", "1", []byte("ctr-code")).
			Define("inc", func(env *Env, input []byte) ([]byte, error) {
				return []byte{byte(env.CounterIncrement("epoch"))}, nil
			}).
			Define("read", func(env *Env, input []byte) ([]byte, error) {
				return []byte{byte(env.CounterRead("epoch"))}, nil
			})
	}
	e1, err := p.Load(counterBin())
	if err != nil {
		t.Fatal(err)
	}
	for want := byte(1); want <= 3; want++ {
		got, err := e1.Call("inc", nil)
		if err != nil || got[0] != want {
			t.Fatalf("inc = (%v, %v), want %d", got, err, want)
		}
	}
	e1.Destroy()
	e2, err := p.Load(counterBin())
	if err != nil {
		t.Fatal(err)
	}
	got, err := e2.Call("read", nil)
	if err != nil || got[0] != 3 {
		t.Fatalf("counter after reload = (%v, %v), want 3", got, err)
	}
	// A different measurement sees its own counter space.
	otherBin := NewBinary("ctr2", "1", []byte("other")).
		Define("read", func(env *Env, input []byte) ([]byte, error) {
			return []byte{byte(env.CounterRead("epoch"))}, nil
		})
	other, err := p.Load(otherBin)
	if err != nil {
		t.Fatal(err)
	}
	got, err = other.Call("read", nil)
	if err != nil || got[0] != 0 {
		t.Fatalf("foreign counter = (%v, %v), want 0", got, err)
	}
}

// Property: any single-byte change to a binary's code identity changes its
// measurement.
func TestQuickMeasurementSensitivity(t *testing.T) {
	f := func(code []byte, flipAt uint8) bool {
		if len(code) == 0 {
			code = []byte{0}
		}
		a := NewBinary("g", "1", code).Define("run", nil).Measurement()
		mutated := append([]byte(nil), code...)
		mutated[int(flipAt)%len(mutated)] ^= 0xff
		b := NewBinary("g", "1", mutated).Define("run", nil).Measurement()
		return a != b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: sealed blobs round trip for arbitrary payloads.
func TestQuickSealRoundTrip(t *testing.T) {
	_, p := testPlatform(t)
	e, err := p.Load(sealBinary("q"))
	if err != nil {
		t.Fatal(err)
	}
	f := func(payload []byte) bool {
		sealed, err := e.Call("seal", payload)
		if err != nil {
			return false
		}
		pt, err := e.Call("unseal", sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestQuoteVerifyKeyCache exercises the parsed attest-key cache: repeated
// verification of quotes from the same platform parses the certified key
// once, a corrupted cached entry cannot bypass the signature check, and a
// tampered DER still fails cleanly.
func TestQuoteVerifyKeyCache(t *testing.T) {
	as, p := testPlatform(t)
	q, _ := quoteFromEnclave(t, p, "cache", []byte("bind"))
	v := &QuoteVerifier{Root: as.Root()}
	for i := 0; i < 3; i++ {
		if err := v.Verify(q); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	v.keyMu.RLock()
	cached := len(v.keys)
	v.keyMu.RUnlock()
	if cached != 1 {
		t.Fatalf("cached keys = %d, want 1 (same platform, one attest key)", cached)
	}
	// A quote whose signature does not verify under the (cached) key is
	// still refused.
	bad := q
	bad.Signature = append([]byte(nil), q.Signature...)
	bad.Signature[4] ^= 0xFF
	if err := v.Verify(bad); !errors.Is(err, ErrQuoteSignature) {
		t.Fatalf("err = %v, want ErrQuoteSignature", err)
	}
	// Concurrent verification shares the cache safely (exercised under
	// -race in CI).
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if err := v.Verify(q); err != nil {
					t.Errorf("concurrent verify: %v", err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestQuoteVerifyCertCache exercises the verified-certificate memo: a
// platform's certificate is checked under the root once and every later
// quote hits the entry; a certificate with any byte altered misses the
// entry and fails; a failed certificate is never cached; and revocation,
// which is not memoised, still refuses a platform whose certificate is.
func TestQuoteVerifyCertCache(t *testing.T) {
	as, p := testPlatform(t)
	q, _ := quoteFromEnclave(t, p, "cache", []byte("bind"))
	v := &QuoteVerifier{Root: as.Root(), Revoked: as.IsRevoked}
	for i := 0; i < 3; i++ {
		if err := v.Verify(q); err != nil {
			t.Fatalf("verify %d: %v", i, err)
		}
	}
	if len(v.keys) != 1 {
		t.Fatalf("cached certificates = %d, want 1", len(v.keys))
	}
	for name, alter := range map[string]func(*PlatformCert){
		"signature byte":  func(c *PlatformCert) { c.Signature[len(c.Signature)-1] ^= 1 },
		"attest-key byte": func(c *PlatformCert) { c.AttestKey[len(c.AttestKey)-1] ^= 1 },
		"platform id":     func(c *PlatformCert) { c.PlatformID[0] ^= 1 },
		// The same concatenated bytes, split differently between the two
		// variable-length fields, must not collide with the cached entry.
		"shifted split": func(c *PlatformCert) {
			c.AttestKey = append(c.AttestKey, c.Signature[0])
			c.Signature = c.Signature[1:]
		},
	} {
		bad := q
		bad.Cert.Signature = append([]byte(nil), q.Cert.Signature...)
		bad.Cert.AttestKey = append([]byte(nil), q.Cert.AttestKey...)
		alter(&bad.Cert)
		if err := v.Verify(bad); !errors.Is(err, ErrQuoteCert) {
			t.Errorf("altered %s: err = %v, want ErrQuoteCert", name, err)
		}
	}
	if len(v.keys) != 1 {
		t.Fatalf("cached certificates = %d after refusals, want 1: a failed certificate was cached", len(v.keys))
	}
	as.Revoke(p.ID())
	if err := v.Verify(q); !errors.Is(err, ErrQuoteRevoked) {
		t.Fatalf("revoked after caching: err = %v, want ErrQuoteRevoked", err)
	}
}

// TestQuoteVerifyCertCacheBounded: a stream of fresh, genuinely certified
// platforms cannot grow the memo past its bound.
func TestQuoteVerifyCertCacheBounded(t *testing.T) {
	as, p := testPlatform(t)
	v := &QuoteVerifier{Root: as.Root()}
	for i := 0; i < maxCachedAttestKeys+maxCachedAttestKeys/2; i++ {
		cert, err := as.certify(PlatformID{byte(i), byte(i >> 8), 0xCE}, p.attestKey.Public())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.certifiedKey(cert); err != nil {
			t.Fatalf("certificate %d: %v", i, err)
		}
		if len(v.keys) > maxCachedAttestKeys {
			t.Fatalf("cache holds %d certificates after %d, bound %d", len(v.keys), i+1, maxCachedAttestKeys)
		}
	}
	if len(v.keys) != maxCachedAttestKeys/2 {
		t.Errorf("cache holds %d certificates, want %d: the bound drops it wholesale", len(v.keys), maxCachedAttestKeys/2)
	}
}
