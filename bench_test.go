package glimmers

// The benchmark harness: one benchmark per experiment in README.md's index
// (the paper's figures and claims), plus micro-benchmarks for the
// mechanisms underneath them. Run with:
//
//	go test -bench=. -benchmem
//
// Key reported metrics (b.ReportMetric) mirror the experiment tables so
// the shape of the paper's argument is visible straight from the bench
// output.

import (
	"runtime"
	"testing"
	"time"

	"glimmers/internal/attest"
	"glimmers/internal/blind"
	"glimmers/internal/experiments"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

func benchFigure1() experiments.Figure1Config {
	cfg := experiments.DefaultFigure1()
	cfg.Users = 8
	cfg.WordsPerUser = 200
	cfg.HeldoutWords = 400
	return cfg
}

// BenchmarkE1RawSharing regenerates Figure 1a's utility/privacy points.
func BenchmarkE1RawSharing(b *testing.B) {
	cfg := benchFigure1()
	var last *experiments.E1Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[1].Accuracy, "raw-accuracy")
	b.ReportMetric(last.Rows[0].Accuracy, "local-accuracy")
}

// BenchmarkE2Federated regenerates Figure 1b: utility plus inversion.
func BenchmarkE2Federated(b *testing.B) {
	cfg := benchFigure1()
	var last *experiments.E2Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.FederatedAccuracy, "fed-accuracy")
	b.ReportMetric(last.MeanInversionRecall, "inversion-recall")
}

// BenchmarkE3SecureAgg regenerates Figure 1c: exact blinded aggregation.
func BenchmarkE3SecureAgg(b *testing.B) {
	cfg := benchFigure1()
	var last *experiments.E3Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	exact := 0.0
	if last.Rows[0].AggregateExact && last.Rows[1].AggregateExact {
		exact = 1.0
	}
	b.ReportMetric(exact, "aggregate-exact")
	b.ReportMetric(last.Rows[0].BlindedInversionRecall, "blinded-inversion")
}

// BenchmarkE4Poisoning regenerates Figure 1d: the invisible 538.
func BenchmarkE4Poisoning(b *testing.B) {
	cfg := benchFigure1()
	var last *experiments.E4Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	flipped := 0.0
	if last.Flipped {
		flipped = 1.0
	}
	b.ReportMetric(flipped, "suggestion-flipped")
	b.ReportMetric(last.PoisonedAggregateWeight, "poisoned-weight")
}

// BenchmarkE5Glimmer regenerates the Figure 2/3 defense.
func BenchmarkE5Glimmer(b *testing.B) {
	cfg := benchFigure1()
	var last *experiments.E5Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	blocked := 0.0
	if last.AttackBlockedAtClient && last.SuggestionIntact {
		blocked = 1.0
	}
	b.ReportMetric(blocked, "attack-blocked")
	b.ReportMetric(float64(last.MeanContributeLatency.Microseconds()), "contribute-us")
}

// BenchmarkE6Decomposed regenerates the §3 decomposition ablation.
func BenchmarkE6Decomposed(b *testing.B) {
	cfg := experiments.DefaultE6()
	cfg.Contributions = 16
	cfg.Dim = 32
	cfg.TransitionCost = 20 * time.Microsecond
	var last *experiments.E6Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].ECallsPerContribution, "single-ecalls")
	b.ReportMetric(last.Rows[1].ECallsPerContribution, "decomposed-ecalls")
}

// BenchmarkE7Corroboration regenerates the §3 validation ladder.
func BenchmarkE7Corroboration(b *testing.B) {
	cfg := experiments.DefaultE7()
	cfg.Users = 4
	cfg.WordsPerUser = 200
	var last *experiments.E7Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[1].ForgedAccepted, "range-forged-accepted")
	b.ReportMetric(last.Rows[2].ForgedAccepted, "corroborated-forged-accepted")
}

// BenchmarkE8BotDetect regenerates the §4.1 sweep.
func BenchmarkE8BotDetect(b *testing.B) {
	cfg := experiments.DefaultE8()
	cfg.Samples = 10
	cfg.Sophistications = []float64{0, 1}
	var last *experiments.E8Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].TPR, "tpr-naive")
	b.ReportMetric(last.Rows[0].FPR, "fpr-naive")
	b.ReportMetric(float64(last.BitsPerVerdict), "bits-per-verdict")
}

// BenchmarkE9GaaS regenerates the §4.2 local-vs-remote comparison.
func BenchmarkE9GaaS(b *testing.B) {
	cfg := experiments.DefaultE9()
	cfg.Contributions = 8
	var last *experiments.E9Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE9(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Rows[0].MeanLatency.Microseconds()), "local-us")
	b.ReportMetric(float64(last.Rows[1].MeanLatency.Microseconds()), "remote-us")
}

// BenchmarkE10Consortium regenerates the §2 consortium comparison.
func BenchmarkE10Consortium(b *testing.B) {
	cfg := experiments.DefaultE10()
	cfg.Contributions = 4
	cfg.Sizes = []int{3, 5}
	var last *experiments.E10Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.Rows[0].Disclosures), "consortium3-disclosures")
	b.ReportMetric(float64(last.Rows[len(last.Rows)-1].Disclosures), "glimmer-disclosures")
}

// BenchmarkE11Maps regenerates the photos-for-maps validation rates.
func BenchmarkE11Maps(b *testing.B) {
	cfg := experiments.DefaultE11()
	cfg.Samples = 8
	var last *experiments.E11Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Rows[0].AcceptRate, "genuine-accept")
	b.ReportMetric(last.Rows[1].AcceptRate, "forged-accept")
}

// BenchmarkE12Verifier regenerates the §3 verification certificates.
func BenchmarkE12Verifier(b *testing.B) {
	var last *experiments.E12Result
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunE12()
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.LeakyRejected)/float64(last.LeakyTotal), "leaky-rejected-rate")
}

// --- Micro-benchmarks for the mechanisms under the experiments. ---

func benchDevice(b *testing.B, dim int, mode Mode) (*Testbed, *Device) {
	b.Helper()
	tb, err := NewTestbed("bench.example", UnitRangeCheck("range", dim))
	if err != nil {
		b.Fatal(err)
	}
	dev, err := tb.NewProvisionedDevice(dim, mode, nil)
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
		if _, err := tb.NewProvisionedDevice(16, ModeNone, nil); err != nil {
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
	as, err := tee.NewAttestationService()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		b.Fatal(err)
	}
	var env *tee.Env
	bin := tee.NewBinary("bench-hs", "1", []byte("bench")).
		Define("grab", func(e *tee.Env, _ []byte) ([]byte, error) {
			env = e
			return nil, nil
		})
	enclave, err := platform.Load(bin)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enclave.Call("grab", nil); err != nil {
		b.Fatal(err)
	}
	verifier := &tee.QuoteVerifier{Root: as.Root()}
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
		agg := NewPipeline(PipelineConfig{
			ServiceName: tb.Service.Name(),
			Verify:      tb.Service.ContributionVerifyKey(),
			Dim:         1024,
			Round:       1,
			Workers:     1,
			Shards:      1,
		})
		if err := agg.Add(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineIngest measures the server-side ingest pipeline —
// decode, ed25519 verify, dedup, accumulate — over a cohort of signed
// contributions at keyboard-model scale, comparing the serial baseline
// (one worker, one shard) against the concurrent sharded pipeline. The
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
	run := func(b *testing.B, workers, shards int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			p := service.NewPipeline(service.PipelineConfig{
				ServiceName: "bench.example",
				Verify:      key.Public(),
				Dim:         dim,
				Round:       round,
				Workers:     workers,
				Shards:      shards,
			})
			for _, err := range p.AddBatch(raws) {
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
	b.Run("serial", func(b *testing.B) { run(b, 1, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0), 0) })
}

// BenchmarkSeal measures enclave sealing of a 256-byte secret.
func BenchmarkSeal(b *testing.B) {
	as, err := tee.NewAttestationService()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		b.Fatal(err)
	}
	bin := tee.NewBinary("bench-seal", "1", []byte("bench")).
		Define("seal", func(env *tee.Env, input []byte) ([]byte, error) {
			return env.Seal(input, nil, tee.SealToMeasurement)
		})
	enclave, err := platform.Load(bin)
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
	as, err := tee.NewAttestationService()
	if err != nil {
		b.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
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
	enclave, err := platform.Load(bin)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := enclave.Call("quote", []byte("bind")); err != nil {
		b.Fatal(err)
	}
	verifier := &tee.QuoteVerifier{Root: as.Root()}
	verifier.Allow(enclave.Measurement())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifier.Verify(quote); err != nil {
			b.Fatal(err)
		}
	}
}
