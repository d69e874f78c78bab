package glimmers

// The benchmark harness: every experiment in README.md's index (the
// paper's figures and claims), plus micro-benchmarks for the mechanisms
// underneath them. Run with:
//
//	go test -bench=. -benchmem

import (
	"runtime"
	"testing"

	"glimmers/internal/attest"
	"glimmers/internal/blind"
	"glimmers/internal/experiments"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/testbed"
	"glimmers/internal/xcrypto"
)

// BenchmarkExperiments regenerates every experiment of README.md's index,
// one sub-benchmark each at its recorded configuration. What they produce
// is pinned by the golden tables in internal/experiments.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Index {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks for the mechanisms under the experiments. ---

func benchDevice(b *testing.B, dim int, mode Mode) (*Testbed, *Device) {
	b.Helper()
	tb, err := NewTestbed("bench.example", UnitRangeCheck("range", dim))
	if err != nil {
		b.Fatal(err)
	}
	dev, err := tb.NewProvisionedDevice(dim, mode)
	if err != nil {
		b.Fatal(err)
	}
	return tb, dev
}

// BenchmarkContribute measures one validate+blind+sign pipeline pass
// through a single enclave (ModeNone, dim 64).
func BenchmarkContribute(b *testing.B) {
	_, dev := benchDevice(b, 64, ModeNone)
	contribution := make(Vector, 64)
	for i := range contribution {
		contribution[i] = fixed.FromFloat(0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Contribute(uint64(i), contribution, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContributeRejected measures the refusal path (the 538 case).
func BenchmarkContributeRejected(b *testing.B) {
	_, dev := benchDevice(b, 64, ModeNone)
	contribution := make(Vector, 64)
	contribution[7] = fixed.FromFloat(538)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dev.Contribute(uint64(i), contribution, nil); err == nil {
			b.Fatal("538 accepted")
		}
	}
}

// BenchmarkProvision measures the full attested provisioning protocol.
func BenchmarkProvision(b *testing.B) {
	tb, err := NewTestbed("bench.example", UnitRangeCheck("range", 16))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.NewProvisionedDevice(16, ModeNone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredicateRangeCheck measures the predicate VM on the canonical
// validator at dim 1024 (the keyboard model size).
func BenchmarkPredicateRangeCheck(b *testing.B) {
	prog := predicate.UnitRangeCheck("range", 1024)
	analysis, err := predicate.Verify(prog)
	if err != nil {
		b.Fatal(err)
	}
	contribution := make([]int64, 1024)
	opts := &predicate.Options{MaxSteps: analysis.CostBound}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predicate.Run(prog, contribution, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredicateVerify measures static verification of the same
// program.
func BenchmarkPredicateVerify(b *testing.B) {
	prog := predicate.UnitRangeCheck("range", 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predicate.Verify(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDealerMasks measures dealer mask generation for a 16-client
// cohort at dim 1024.
func BenchmarkDealerMasks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := blind.ZeroSumMasks([]byte{byte(i)}, 16, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPairwiseMask measures one party's pairwise mask at dim 1024 in
// a 16-party group.
func BenchmarkPairwiseMask(b *testing.B) {
	keys := make([]*xcrypto.DHKey, 16)
	roster := make([][]byte, 16)
	for i := range keys {
		k, err := xcrypto.NewDHKey()
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
		roster[i] = k.PublicBytes()
	}
	party, err := blind.NewParty(0, keys[0], roster)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := party.Mask(1024, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAttestedHandshake measures the quote-bound DH handshake.
func BenchmarkAttestedHandshake(b *testing.B) {
	sub, err := testbed.New()
	if err != nil {
		b.Fatal(err)
	}
	var env *tee.Env
	bin := tee.NewBinary("bench-hs", "1", []byte("bench")).
		Define("grab", func(e *tee.Env, _ []byte) ([]byte, error) {
			env = e
			return nil, nil
		})
	enclave, err := sub.Platform.Load(bin)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enclave.Call("grab", nil); err != nil {
		b.Fatal(err)
	}
	verifier := &tee.QuoteVerifier{Root: sub.AS.Root()}
	identity, err := xcrypto.NewSigningKey()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key, hello, err := attest.NewEnclaveHello(env, "bench")
		if err != nil {
			b.Fatal(err)
		}
		_, resp, err := attest.Respond(hello, verifier, identity, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := key.Complete(resp, identity.Public()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionRoundTrip measures encrypt+decrypt of a 1 KiB record on
// an established session.
func BenchmarkSessionRoundTrip(b *testing.B) {
	shared := make([]byte, 32)
	var transcript [32]byte
	alice := attest.NewSessionFromSecret(shared, transcript, true)
	bob := attest.NewSessionFromSecret(shared, transcript, false)
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := alice.Send(payload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := bob.Recv(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineAdd measures server-side verification and
// accumulation of one signed contribution at dim 1024.
func BenchmarkPipelineAdd(b *testing.B) {
	tb, dev := benchDevice(b, 1024, ModeNone)
	contribution := make(Vector, 1024)
	sc, err := dev.Contribute(1, contribution, nil)
	if err != nil {
		b.Fatal(err)
	}
	raw := EncodeSignedContribution(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := NewRegistry(0)
		tenant, err := reg.AddTenant(TenantConfig{
			Name:    tb.Service.Name(),
			Verify:  tb.Service.ContributionVerifyKey(),
			Dim:     1024,
			Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		tenant.Manager().Round(1) // open, so admission's verify is not paid
		if err := reg.Ingest(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineIngest measures the server-side ingest pipeline —
// decode, ed25519 verify, dedup, accumulate — over a cohort of signed
// contributions at keyboard-model scale, comparing the serial baseline
// (one worker) against one frame fanned out over every core. The
// contributions are fabricated and signed directly so the benchmark
// isolates the service layer from Glimmer execution.
func BenchmarkPipelineIngest(b *testing.B) {
	const (
		dim     = 256
		clients = 512
		round   = uint64(7)
	)
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		b.Fatal(err)
	}
	raws := make([][]byte, clients)
	for i := range raws {
		sc := glimmer.SignedContribution{
			ServiceName: "bench.example",
			Round:       round,
			Measurement: tee.Measurement{1},
			Blinded:     make(Vector, dim),
			Confidence:  1,
		}
		for j := range sc.Blinded {
			// Distinct vectors per client so no two encodings collide in
			// the dedup set.
			sc.Blinded[j] = Ring(uint64(i)*1000003 + uint64(j))
		}
		sig, err := key.Sign(sc.SignedBytes())
		if err != nil {
			b.Fatal(err)
		}
		sc.Signature = sig
		raws[i] = glimmer.EncodeSignedContribution(sc)
	}
	run := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			reg := service.NewRegistry(0)
			tenant, err := reg.AddTenant(service.TenantConfig{
				Name:    "bench.example",
				Verify:  key.Public(),
				Dim:     dim,
				Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			p := tenant.Manager().Round(round)
			_, errs := reg.IngestBatch(raws)
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Seal(); err != nil {
				b.Fatal(err)
			}
			if p.Count() != clients {
				b.Fatalf("count = %d, want %d", p.Count(), clients)
			}
			p.Close()
		}
		b.ReportMetric(float64(clients*b.N)/b.Elapsed().Seconds(), "contrib/s")
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}

// BenchmarkSeal measures enclave sealing of a 256-byte secret.
func BenchmarkSeal(b *testing.B) {
	sub, err := testbed.New()
	if err != nil {
		b.Fatal(err)
	}
	bin := tee.NewBinary("bench-seal", "1", []byte("bench")).
		Define("seal", func(env *tee.Env, input []byte) ([]byte, error) {
			return env.Seal(input, nil, tee.SealToMeasurement)
		})
	enclave, err := sub.Platform.Load(bin)
	if err != nil {
		b.Fatal(err)
	}
	secret := make([]byte, 256)
	b.SetBytes(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enclave.Call("seal", secret); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuoteVerify measures the verifier's full chain check.
func BenchmarkQuoteVerify(b *testing.B) {
	sub, err := testbed.New()
	if err != nil {
		b.Fatal(err)
	}
	var quote tee.Quote
	bin := tee.NewBinary("bench-q", "1", []byte("bench")).
		Define("quote", func(env *tee.Env, input []byte) ([]byte, error) {
			var err error
			quote, err = env.NewQuote(input)
			return nil, err
		})
	enclave, err := sub.Platform.Load(bin)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enclave.Call("quote", []byte("bind")); err != nil {
		b.Fatal(err)
	}
	verifier := &tee.QuoteVerifier{Root: sub.AS.Root()}
	verifier.Allow(enclave.Measurement())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifier.Verify(quote); err != nil {
			b.Fatal(err)
		}
	}
}
