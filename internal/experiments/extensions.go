package experiments

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"glimmers/internal/audit"
	"glimmers/internal/botdetect"
	"glimmers/internal/consortium"
	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/geo"
	"glimmers/internal/glimmer"
	"glimmers/internal/node"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/testbed"
	"glimmers/internal/xcrypto"
)

// E8Config parameterizes the §4.1 bot-detection experiment.
type E8Config struct {
	Seed    []byte
	Samples int
	// Sophistications is the adversary sweep.
	Sophistications []float64
}

// e8Events is how many input events one sampled session holds.
const e8Events = 300

// DefaultE8 is the recorded configuration.
func DefaultE8() E8Config {
	return E8Config{
		Seed:            []byte("glimmers-e8"),
		Samples:         80,
		Sophistications: []float64{0, 0.25, 0.5, 0.75, 1.0},
	}
}

// E8Row is one adversary sophistication point.
type E8Row struct {
	Sophistication float64
	// TPR: humans accepted as human. FPR: bots accepted as human.
	TPR float64
	FPR float64
}

// E8Result is the §4.1 reproduction: detector quality, the 1-bit audit
// bound, and validation confidentiality.
type E8Result struct {
	Rows []E8Row
	// BitsPerVerdict is the audited information content of each verdict
	// message (excluding the signature channel the paper acknowledges).
	BitsPerVerdict int
	// VerdictsAudited counts messages checked against the public format.
	VerdictsAudited int
	// ConfidentialDelivery: the detector predicate reached the Glimmer
	// inside the encrypted session (the host never saw it).
	ConfidentialDelivery bool
}

// Table renders the result.
func (r *E8Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{f3(row.Sophistication), f3(row.TPR), f3(row.FPR)}
	}
	out := table("E8 (§4.1): bot detection through a Glimmer",
		[]string{"bot-sophistication", "TPR", "FPR"}, rows)
	out += fmt.Sprintf("bits per verdict (audited): %d over %d messages\n", r.BitsPerVerdict, r.VerdictsAudited)
	out += fmt.Sprintf("confidential predicate delivery: %v\n", r.ConfidentialDelivery)
	return out
}

// RunE8 runs detection end to end through a provisioned Glimmer, auditing
// every verdict message.
func RunE8(cfg E8Config) (*E8Result, error) {
	t, err := testbed.NewTenant(testbed.TenantSpec{Name: "webservice.example", Dim: 1,
		Predicate: botdetect.DefaultDetector.Predicate("bot-detector")})
	if err != nil {
		return nil, err
	}
	dev, err := t.NewDevice()
	if err != nil {
		return nil, err
	}
	gate := service.NewBotGate(t.Name, t.Svc.ContributionVerifyKey())
	format := audit.VerdictFormat(t.Name)

	res := &E8Result{BitsPerVerdict: format.CapacityBits(), ConfidentialDelivery: true}
	prg := xcrypto.NewPRG(cfg.Seed)

	classify := func(tr botdetect.Trace) (bool, error) {
		challenge, err := gate.NewChallenge()
		if err != nil {
			return false, err
		}
		verdict, err := dev.Detect(challenge, botdetect.Features(tr))
		if err != nil {
			return false, err
		}
		raw := glimmer.EncodeVerdict(verdict)
		if _, err := format.Check(raw, map[string][]byte{"challenge": verdict.Challenge}); err != nil {
			return false, fmt.Errorf("audit failed: %w", err)
		}
		res.VerdictsAudited++
		return gate.CheckVerdict(raw)
	}

	for _, s := range cfg.Sophistications {
		humanOK, botOK := 0, 0
		for i := 0; i < cfg.Samples; i++ {
			human, err := classify(botdetect.HumanTrace(prg, e8Events))
			if err != nil {
				return nil, err
			}
			if human {
				humanOK++
			}
			bot, err := classify(botdetect.BotTrace(prg, e8Events, s))
			if err != nil {
				return nil, err
			}
			if bot {
				botOK++
			}
		}
		res.Rows = append(res.Rows, E8Row{
			Sophistication: s,
			TPR:            float64(humanOK) / float64(cfg.Samples),
			FPR:            float64(botOK) / float64(cfg.Samples),
		})
	}
	return res, nil
}

// E9Config parameterizes the Glimmer-as-a-service comparison.
type E9Config struct {
	Seed          []byte
	Dim           int
	Contributions int
}

// DefaultE9 is the recorded configuration.
func DefaultE9() E9Config {
	return E9Config{Seed: []byte("glimmers-e9"), Dim: 32, Contributions: 32}
}

// E9Row is one deployment's latency over the run's contributions, each
// timed on its own: the mean the table prints, and the median, which
// outside load on a few samples does not move.
type E9Row struct {
	Deployment    string
	MeanLatency   time.Duration
	MedianLatency time.Duration
}

func e9Row(deployment string, samples []time.Duration) E9Row {
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	slices.Sort(samples)
	return E9Row{deployment, total / time.Duration(len(samples)), samples[len(samples)/2]}
}

// E9Result compares a local Glimmer with a remote one over TCP (§4.2).
type E9Result struct {
	Rows []E9Row
	// RemoteWorks: the IoT client's contribution verified end to end.
	RemoteWorks bool
}

// Table renders the result.
func (r *E9Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Deployment, row.MeanLatency.String()}
	}
	out := table("E9 (§4.2): local vs remote Glimmer",
		[]string{"deployment", "mean latency"}, rows)
	return out + fmt.Sprintf("remote contribution verified: %v\n", r.RemoteWorks)
}

// RunE9 measures both deployments.
func RunE9(cfg E9Config) (*E9Result, error) {
	const name = "iot.example"
	t, err := testbed.NewTenant(testbed.TenantSpec{Name: name, Dim: cfg.Dim, Predicate: predicate.UnitRangeCheck("range", cfg.Dim),
		Hosting: node.Hosting(0)})
	if err != nil {
		return nil, err
	}
	contribution := fixed.NewVector(cfg.Dim)
	for i := range contribution {
		contribution[i] = fixed.FromFloat(0.25)
	}
	res := &E9Result{}

	// Local device.
	local, err := t.NewDevice()
	if err != nil {
		return nil, err
	}
	// Remote glimmer: the tenant hosts it on the node, over loopback TCP.
	_, err = onNode(t, "", func(_ *node.Node, addr string) error {
		verifier := &tee.QuoteVerifier{Root: t.AS.Root()}
		verifier.Allow(t.Measurement())
		client, err := gaas.DialContext(context.Background(), addr, gaas.DialConfig{Service: t.Name, Verifier: verifier})
		if err != nil {
			return err
		}
		defer client.Close()
		// The two deployments are sampled alternately, one contribution
		// each, so whatever else the machine is doing falls on both.
		var lastSC glimmer.SignedContribution
		var localTook, remoteTook []time.Duration
		for i := 0; i < cfg.Contributions; i++ {
			t0 := time.Now()
			if _, err := local.Contribute(uint64(i), contribution, nil); err != nil {
				return err
			}
			t1 := time.Now()
			if lastSC, err = client.Contribute(uint64(i), contribution, nil); err != nil {
				return err
			}
			localTook, remoteTook = append(localTook, t1.Sub(t0)), append(remoteTook, time.Since(t1))
		}
		res.Rows = append(res.Rows, e9Row("local glimmer", localTook), e9Row("remote glimmer (TCP)", remoteTook))
		res.RemoteWorks = t.Svc.ContributionVerifyKey().Verify(lastSC.SignedBytes(), lastSC.Signature)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// E10Config parameterizes the consortium comparison.
type E10Config struct {
	Seed          []byte
	Dim           int
	Contributions int
	// Sizes are the consortium sizes to sweep (threshold = majority).
	Sizes []int
}

// DefaultE10 is the recorded configuration.
func DefaultE10() E10Config {
	return E10Config{Seed: []byte("glimmers-e10"), Dim: 32, Contributions: 16, Sizes: []int{3, 5, 9}}
}

// E10Row is one realization's cost.
type E10Row struct {
	Realization string
	MeanLatency time.Duration
	Messages    int
	Bytes       int
	Disclosures int
}

// E10Result compares the consortium TTP (§2) against the SGX Glimmer.
type E10Result struct {
	Rows []E10Row
}

// Table renders the result.
func (r *E10Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Realization, row.MeanLatency.String(),
			fmt.Sprintf("%d", row.Messages), fmt.Sprintf("%d", row.Bytes), fmt.Sprintf("%d", row.Disclosures)}
	}
	return table("E10 (§2): consortium TTP vs SGX Glimmer (per contribution)",
		[]string{"realization", "latency", "messages", "bytes", "disclosures"}, rows)
}

// RunE10 sweeps consortium sizes and measures the Glimmer for comparison.
func RunE10(cfg E10Config) (*E10Result, error) {
	contribution := fixed.NewVector(cfg.Dim)
	for i := range contribution {
		contribution[i] = fixed.FromFloat(0.5)
	}
	res := &E10Result{}

	for _, n := range cfg.Sizes {
		k := n/2 + 1
		c, err := consortium.New(n, k, predicate.UnitRangeCheck("range", cfg.Dim))
		if err != nil {
			return nil, err
		}
		keys := c.VerifyKeys()
		var stats consortium.CostStats
		start := time.Now()
		for i := 0; i < cfg.Contributions; i++ {
			e, s, err := c.Endorse(uint64(i), contribution, nil, nil)
			if err != nil {
				return nil, err
			}
			if err := consortium.VerifyEndorsement(e, keys, k); err != nil {
				return nil, err
			}
			stats = s
		}
		res.Rows = append(res.Rows, E10Row{
			Realization: fmt.Sprintf("consortium n=%d k=%d", n, k),
			MeanLatency: time.Since(start) / time.Duration(cfg.Contributions),
			Messages:    stats.Messages,
			Bytes:       stats.Bytes,
			Disclosures: stats.Disclosures,
		})
	}

	// SGX Glimmer for comparison: private data stays on the device.
	t, err := testbed.NewTenant(testbed.TenantSpec{Name: "cmp.example", Dim: cfg.Dim, Predicate: predicate.UnitRangeCheck("range", cfg.Dim)})
	if err != nil {
		return nil, err
	}
	dev, err := t.NewDevice()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var bytesOut int
	for i := 0; i < cfg.Contributions; i++ {
		sc, err := dev.Contribute(uint64(i), contribution, nil)
		if err != nil {
			return nil, err
		}
		bytesOut = len(glimmer.EncodeSignedContribution(sc))
	}
	res.Rows = append(res.Rows, E10Row{
		Realization: "sgx glimmer (local enclave)",
		MeanLatency: time.Since(start) / time.Duration(cfg.Contributions),
		Messages:    1, // the signed contribution to the service
		Bytes:       bytesOut,
		Disclosures: 0, // no third party sees the private data
	})
	return res, nil
}

// E11Config parameterizes the photos-for-maps experiment.
type E11Config struct {
	Seed    []byte
	Samples int
}

// DefaultE11 is the recorded configuration.
func DefaultE11() E11Config {
	return E11Config{Seed: []byte("glimmers-e11"), Samples: 40}
}

// E11Row is one photo-population's acceptance rate through the Glimmer.
type E11Row struct {
	Case       string
	AcceptRate float64
}

// E11Result is the maps scenario: genuine photos endorsed, forgeries
// refused, all without the GPS track leaving the device.
type E11Result struct {
	Rows []E11Row
}

// Table renders the result.
func (r *E11Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Case, f3(row.AcceptRate)}
	}
	return table("E11 (§1/§3): photos-for-maps validation",
		[]string{"photo population", "accept rate"}, rows)
}

// RunE11 pushes photo contributions through a Glimmer running the maps
// validator.
func RunE11(cfg E11Config) (*E11Result, error) {
	t, err := testbed.NewTenant(testbed.TenantSpec{Name: "maps.example", Dim: 2, Predicate: geo.DefaultPredicate("photo-validator")})
	if err != nil {
		return nil, err
	}
	dev, err := t.NewDevice()
	if err != nil {
		return nil, err
	}
	prg := xcrypto.NewPRG(cfg.Seed)
	downtown := geo.Point{LatMicro: 43_653_000, LonMicro: -79_383_000}

	submit := func(photo geo.Photo, ctx geo.DeviceContext, round uint64) (bool, error) {
		features := geo.ContextFeatures(photo, ctx)
		contribution := fixed.Vector{fixed.Ring(photo.Claimed.LatMicro), fixed.Ring(photo.Claimed.LonMicro)}
		_, err := dev.Contribute(round, contribution, features)
		if err == nil {
			return true, nil
		}
		if errors.Is(err, glimmer.ErrRejected) {
			return false, nil
		}
		return false, err
	}

	cases := []struct {
		name string
		mk   func(i int) (geo.Photo, geo.DeviceContext)
	}{
		{"genuine (visited, own camera)", func(i int) (geo.Photo, geo.DeviceContext) {
			ctx := geo.DeviceContext{Track: geo.RandomTrack(prg, downtown, 30, 25, 60_000), CamFingerprint: 0xCAFE}
			fix := ctx.Track[15]
			return geo.Photo{TakenMs: fix.TimeMs + 30_000, Claimed: fix.Loc, CamFingerprint: 0xCAFE, Wifi: fix.Wifi}, ctx
		}},
		{"forged location (never visited)", func(i int) (geo.Photo, geo.DeviceContext) {
			ctx := geo.DeviceContext{Track: geo.RandomTrack(prg, downtown, 30, 25, 60_000), CamFingerprint: 0xCAFE}
			far := geo.Point{LatMicro: downtown.LatMicro + 800_000, LonMicro: downtown.LonMicro}
			return geo.Photo{TakenMs: ctx.Track[15].TimeMs, Claimed: far, CamFingerprint: 0xCAFE, Wifi: geo.WifiAt(far)}, ctx
		}},
		{"stolen photo (foreign camera)", func(i int) (geo.Photo, geo.DeviceContext) {
			ctx := geo.DeviceContext{Track: geo.RandomTrack(prg, downtown, 30, 25, 60_000), CamFingerprint: 0xCAFE}
			fix := ctx.Track[15]
			return geo.Photo{TakenMs: fix.TimeMs, Claimed: fix.Loc, CamFingerprint: 0xBEEF, Wifi: fix.Wifi}, ctx
		}},
	}
	res := &E11Result{}
	round := uint64(0)
	for _, c := range cases {
		accepted := 0
		for i := 0; i < cfg.Samples; i++ {
			photo, ctx := c.mk(i)
			ok, err := submit(photo, ctx, round)
			round++
			if err != nil {
				return nil, err
			}
			if ok {
				accepted++
			}
		}
		res.Rows = append(res.Rows, E11Row{Case: c.name, AcceptRate: float64(accepted) / float64(cfg.Samples)})
	}
	return res, nil
}

// E12Row is one predicate's verification certificate versus reality.
type E12Row struct {
	Predicate string
	Verified  bool
	CostBound int64
	// ActualSteps from a representative run (0 if not run).
	ActualSteps int64
	Declass     int
}

// E12Result exercises the §3 verification story: the static verifier's
// certificates hold at runtime, and leaky predicates are rejected.
type E12Result struct {
	Rows []E12Row
	// LeakyRejected counts adversarial predicates refused by the verifier.
	LeakyRejected int
	LeakyTotal    int
}

// Table renders the result.
func (r *E12Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Predicate, fmt.Sprintf("%v", row.Verified),
			fmt.Sprintf("%d", row.CostBound), fmt.Sprintf("%d", row.ActualSteps), fmt.Sprintf("%d", row.Declass)}
	}
	out := table("E12 (§3): predicate verification certificates",
		[]string{"predicate", "verified", "cost-bound", "actual-steps", "declass-sites"}, rows)
	return out + fmt.Sprintf("leaky predicates rejected: %d/%d\n", r.LeakyRejected, r.LeakyTotal)
}

// RunE12 verifies the standard predicates and attacks the verifier with
// leaky ones.
func RunE12() (*E12Result, error) {
	const dim = 16
	res := &E12Result{}
	contribution := make([]int64, dim)
	private := make([]int64, dim)

	library := []struct {
		p       *predicate.Program
		private []int64
	}{
		{predicate.UnitRangeCheck("unit-range", dim), private},
		{predicate.RangeCheck("range[-5,5]", dim, -5, 5), private},
		{predicate.SumBound("sum-bound", dim, 0, 1000), private},
		{predicate.CrossCheck("cross-check", dim, 10), private},
		{predicate.ThresholdScore("threshold", make([]int64, botdetect.NumFeatures), 0), make([]int64, botdetect.NumFeatures)},
		{botdetect.DefaultDetector.Predicate("bot-detector"), make([]int64, botdetect.NumFeatures)},
		{geo.DefaultPredicate("photo-validator"), make([]int64, geo.NumFeatures)},
		{predicate.AlwaysValid("always-valid"), nil},
	}
	for _, entry := range library {
		analysis, err := predicate.Verify(entry.p)
		row := E12Row{Predicate: entry.p.Name, Verified: err == nil}
		if err == nil {
			row.CostBound = analysis.CostBound
			row.Declass = len(analysis.DeclassSites)
			contrib := contribution
			if entry.p.Name == "photo-validator" {
				contrib = contribution[:2]
			}
			if r, err := predicate.Run(entry.p, contrib, entry.private, nil); err == nil {
				row.ActualSteps = r.Steps
				if row.ActualSteps > row.CostBound {
					return nil, fmt.Errorf("cost bound violated by %s", entry.p.Name)
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}

	// Adversarial predicates that must be rejected.
	leaky := []*predicate.Program{
		// Direct leak of a secret as the verdict.
		predicate.NewBuilder("leak-direct", 0).LoadC(0).Verdict().MustBuild(),
		// Leak through a local.
		predicate.NewBuilder("leak-local", 1).LoadP(0).Store(0).Load(0).Verdict().MustBuild(),
		// Implicit flow: branch on a secret.
		func() *predicate.Program {
			b := predicate.NewBuilder("leak-branch", 0)
			l := b.NewLabel()
			b.LoadP(0).Jz(l).Bind(l)
			return b.Push(1).Declass().Verdict().MustBuild()
		}(),
		// Unbounded cost (nested max loops).
		func() *predicate.Program {
			b := predicate.NewBuilder("cost-bomb", 0)
			b.Loop(predicate.MaxLoopCount, func(b *predicate.Builder) {
				b.Loop(predicate.MaxLoopCount, func(b *predicate.Builder) {
					b.Push(0).Pop()
				})
			})
			return b.Push(1).Declass().Verdict().MustBuild()
		}(),
		// No verdict at all.
		predicate.NewBuilder("no-verdict", 0).Push(1).Pop().Halt().MustBuild(),
	}
	res.LeakyTotal = len(leaky)
	for _, p := range leaky {
		if _, err := predicate.Verify(p); err != nil {
			res.LeakyRejected++
		}
	}
	return res, nil
}
