package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"glimmers/internal/fedml"
	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/keyboard"
	"glimmers/internal/node"
	"glimmers/internal/predicate"
	"glimmers/internal/tee"
	"glimmers/internal/testbed"
	"glimmers/internal/xcrypto"
)

// E5Result shows the Glimmer blocking Figure 1d's attack end to end
// (Figures 2 and 3 operating together).
type E5Result struct {
	// Accepted counts contributions in the node's sealed round; Rejected
	// counts those a client's Glimmer refused to endorse.
	Accepted int
	Rejected int
	// AttackBlockedAtClient: no 538 ever left an attacker's device.
	AttackBlockedAtClient bool
	// Suggestion is what the protected global model offers after the cue
	// word, at Weight. SuggestionIntact: it is not the attacker's target.
	Suggestion       string
	Weight           float64
	SuggestionIntact bool
	// AggregateExact: masks cancelled; aggregate equals honest-only sum.
	AggregateExact bool
	// MeanContributeLatency is wall-clock per contribution through the
	// Glimmer (validate+blind+sign, one enclave round trip).
	MeanContributeLatency time.Duration
}

// Table renders the result.
func (r *E5Result) Table() string {
	return table("E5 (Fig 2/3): Glimmer defense — attack dies at the client",
		[]string{"metric", "value"},
		[][]string{
			{"contributions accepted", fmt.Sprintf("%d", r.Accepted)},
			{"contributions rejected", fmt.Sprintf("%d", r.Rejected)},
			{"538 blocked at client", fmt.Sprintf("%v", r.AttackBlockedAtClient)},
			{"suggestion intact (donald->trump)", fmt.Sprintf("%v", r.SuggestionIntact)},
			{"aggregate exact", fmt.Sprintf("%v", r.AggregateExact)},
			{"mean contribute latency", r.MeanContributeLatency.String()},
		})
}

// e5Frame is how many contributions ride one submit-batch frame.
const e5Frame = 128

// RunE5 reproduces the Glimmer defense over the Figure 1 cohort, with the
// service side on the shipped node: the cohort's endorsed contributions
// cross the gaas edge in batch frames, are routed, admitted and journaled
// by a durable tenant, and the sealed sum is read off the drain report.
func RunE5(cfg Figure1Config) (*E5Result, error) {
	res, _, err := runE5(cfg)
	return res, err
}

// runE5 also returns what the hosting node reported at drain.
func runE5(cfg Figure1Config) (res *E5Result, rep node.Report, err error) {
	pop, err := newPopulation(cfg.Seed, cfg.Users, cfg.WordsPerUser)
	if err != nil {
		return nil, rep, err
	}
	dims := pop.vocab.Dims()
	// One dealer-blinded Glimmer per user, masked for one round under the
	// experiment's seed.
	const round = uint64(1)
	n := len(pop.Users)
	const name = "nextwordpredictive.com"
	t, err := testbed.NewTenant(testbed.TenantSpec{Name: name, Devices: n, Dim: dims, Rounds: []uint64{round},
		Seed: int64(xcrypto.NewPRG(append(cfg.Seed, 'e', '5')).Uint64()), Hosting: node.Hosting(0)})
	if err != nil {
		return nil, rep, err
	}
	defer t.Destroy()

	models := pop.localModels()
	if err := cfg.poison(models); err != nil {
		return nil, rep, err
	}
	honestSum := fixed.NewVector(dims)
	for _, m := range models[cfg.Attackers:] { // poisoned models are excluded from truth
		honestSum.AddInPlace(m.Weights)
	}

	// Client side: every user's Glimmer validates, blinds and signs.
	res = &E5Result{}
	var totalLatency time.Duration
	var endorsed [][]byte
	var refused []uint32
	for i, m := range models {
		start := time.Now()
		sc, err := t.Devs[i].Contribute(round, m.Weights, nil)
		totalLatency += time.Since(start)
		if i < cfg.Attackers && errors.Is(err, glimmer.ErrRejected) {
			res.Rejected++
			// A refused device's mask never enters the aggregate; the
			// dealer reveals it below so the honest masks still cancel.
			refused = append(refused, uint32(i))
			continue
		}
		if err != nil {
			return nil, rep, fmt.Errorf("user %d: %w", i, err)
		}
		endorsed = append(endorsed, glimmer.EncodeSignedContribution(sc))
	}
	res.AttackBlockedAtClient = cfg.Attackers > 0 && res.Rejected == cfg.Attackers
	res.MeanContributeLatency = totalLatency / time.Duration(n)

	// Service side: a durable tenant on the node, fed over its edge the
	// way a relay feeds glimmerd — sessionless, batch frames.
	stateDir, err := os.MkdirTemp("", "glimmers-e5-")
	if err != nil {
		return nil, rep, err
	}
	defer os.RemoveAll(stateDir)
	var mean fixed.Vector
	rep, err = onNode(t, stateDir, func(hosted *node.Node, addr string) error {
		client, err := gaas.DialContext(context.Background(), addr, gaas.DialConfig{NoSession: true})
		if err != nil {
			return err
		}
		defer client.Close()
		for frame := range slices.Chunk(endorsed, e5Frame) {
			_, refused, err := client.SubmitBatch(frame)
			if err != nil {
				return err
			}
			if refused > 0 {
				return fmt.Errorf("edge refused %d of %d endorsed contributions", refused, len(frame))
			}
		}
		tenant, _ := hosted.Registry().Tenant(t.Name)
		p := tenant.Manager().Round(round)
		if err := p.Seal(); err != nil {
			return err
		}
		// The surviving masks sum to minus the refused devices'; the dealer
		// reveals those, and the round corrects like a dropout.
		if len(refused) > 0 {
			unused, err := t.Reveal(round, refused)
			if err != nil {
				return err
			}
			if err := p.CorrectDropout(unused); err != nil {
				return err
			}
		}
		mean, err = p.Mean()
		return err
	})
	if err != nil {
		return nil, rep, err
	}
	if len(rep.Tenants) != 1 || len(rep.Tenants[0].Rounds) != 1 {
		return nil, rep, fmt.Errorf("node drained %+v, want one tenant with one round", rep.Tenants)
	}
	sealed := rep.Tenants[0].Rounds[0]
	res.Accepted = sealed.Accepted
	res.AggregateExact = slices.Equal(sealed.Sum, honestSum)

	global, err := fedml.FromWeights(pop.vocab, mean)
	if err != nil {
		return nil, rep, err
	}
	if res.Suggestion, res.Weight, err = global.Predict(AttackCue); err != nil {
		return nil, rep, err
	}
	res.SuggestionIntact = res.Suggestion != AttackTarget
	return res, rep, nil
}

// E6Config parameterizes the decomposition ablation.
type E6Config struct {
	Seed []byte
	Dim  int
	// Contributions per configuration.
	Contributions int
	// TransitionCost is the synthetic enclave world-switch latency; the
	// ablation is run at zero and at this cost.
	TransitionCost time.Duration
}

// DefaultE6 is the recorded configuration.
func DefaultE6() E6Config {
	return E6Config{
		Seed:           []byte("glimmers-e6"),
		Dim:            64,
		Contributions:  64,
		TransitionCost: 20 * time.Microsecond,
	}
}

// E6Row is one deployment's cost.
type E6Row struct {
	Config string
	// ECallsPerContribution is the enclave transition count per operation.
	ECallsPerContribution float64
	// MeanLatency without synthetic transition cost.
	MeanLatency time.Duration
	// MeanLatencyCosted with the synthetic transition cost applied.
	MeanLatencyCosted time.Duration
}

// E6Result is the single-vs-decomposed ablation (§3's last paragraph).
type E6Result struct {
	Rows []E6Row
}

// Table renders the result.
func (r *E6Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Config, fmt.Sprintf("%.1f", row.ECallsPerContribution),
			row.MeanLatency.String(), row.MeanLatencyCosted.String()}
	}
	return table("E6 (§3): single vs decomposed enclaves",
		[]string{"config", "ecalls/contribution", "latency", "latency(+transition cost)"}, rows)
}

// RunE6 measures the price of decomposition.
func RunE6(cfg E6Config) (*E6Result, error) {
	t, err := testbed.NewTenant(testbed.TenantSpec{Name: "ablation.example", Dim: cfg.Dim})
	if err != nil {
		return nil, err
	}
	contribution := fixed.NewVector(cfg.Dim)
	for i := range contribution {
		contribution[i] = fixed.FromFloat(0.5)
	}

	res := &E6Result{}
	type devLike interface {
		Contribute(uint64, fixed.Vector, []int64) (glimmer.SignedContribution, error)
	}
	measure := func(name string, mk func(costed bool) (devLike, func() uint64, error)) error {
		// Uncosted pass.
		dev, ecalls, err := mk(false)
		if err != nil {
			return err
		}
		before := ecalls()
		start := time.Now()
		for i := 0; i < cfg.Contributions; i++ {
			if _, err := dev.Contribute(uint64(i), contribution, nil); err != nil {
				return err
			}
		}
		lat := time.Since(start) / time.Duration(cfg.Contributions)
		perOp := float64(ecalls()-before) / float64(cfg.Contributions)

		// Costed pass.
		devC, _, err := mk(true)
		if err != nil {
			return err
		}
		start = time.Now()
		for i := 0; i < cfg.Contributions; i++ {
			if _, err := devC.Contribute(uint64(i), contribution, nil); err != nil {
				return err
			}
		}
		latCosted := time.Since(start) / time.Duration(cfg.Contributions)
		res.Rows = append(res.Rows, E6Row{
			Config:                name,
			ECallsPerContribution: perOp,
			MeanLatency:           lat,
			MeanLatencyCosted:     latCosted,
		})
		return nil
	}

	mkSingle := func(costed bool) (devLike, func() uint64, error) {
		var opts []tee.LoadOption
		if costed {
			opts = append(opts, tee.WithTransitionCost(cfg.TransitionCost))
		}
		dev, err := t.Svc.NewDevice(t.Platform, t.HostCfg, opts...)
		if err != nil {
			return nil, nil, err
		}
		return dev, func() uint64 { return dev.Stats().ECalls }, nil
	}
	if err := measure("single enclave", mkSingle); err != nil {
		return nil, err
	}

	vendor, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, err
	}
	mkDecomposed := func(costed bool) (devLike, func() uint64, error) {
		var opts []tee.LoadOption
		if costed {
			opts = append(opts, tee.WithTransitionCost(cfg.TransitionCost))
		}
		dev, err := glimmer.NewDecomposedDevice(t.Platform, t.HostCfg, vendor.Public(), opts...)
		if err != nil {
			return nil, nil, err
		}
		payload, err := t.Svc.BasePayload()
		if err != nil {
			return nil, nil, err
		}
		for _, c := range []*glimmer.Component{dev.Validator(), dev.Blinder(), dev.Signer()} {
			t.Svc.Vet(c.Measurement())
			if err := t.Svc.Provision(c, payload); err != nil {
				return nil, nil, err
			}
		}
		return dev, func() uint64 { return dev.Stats().ECalls }, nil
	}
	if err := measure("decomposed (3 enclaves)", mkDecomposed); err != nil {
		return nil, err
	}
	return res, nil
}

// E7Config parameterizes the corroboration-strength experiment.
type E7Config struct {
	Seed         []byte
	Users        int
	WordsPerUser int
}

// e7Tolerance is the cross-check corroborator's tolerance, in fixed-point
// units.
const e7Tolerance = fixed.Scale / 100

// DefaultE7 is the recorded configuration.
func DefaultE7() E7Config {
	return E7Config{Seed: []byte("glimmers-e7"), Users: 8, WordsPerUser: 400}
}

// E7Row is one validation level's outcome against honest and forging users.
type E7Row struct {
	Validation string
	// HonestAccepted / ForgedAccepted are acceptance rates.
	HonestAccepted float64
	ForgedAccepted float64
	// MaxSkewWeight is the largest per-dimension weight an accepted forgery
	// can claim — the attacker's remaining power at this level.
	MaxSkewWeight float64
}

// E7Result is the validation-strength ladder of §3: range checks stop
// out-of-range lies; activity corroboration (a la NAB) stops in-range lies
// that do not match real behaviour.
type E7Result struct {
	Rows []E7Row
}

// Table renders the result.
func (r *E7Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Validation, f3(row.HonestAccepted), f3(row.ForgedAccepted), f3(row.MaxSkewWeight)}
	}
	return table("E7 (§3): validation strength vs adversary power",
		[]string{"validation", "honest-accepted", "forged-accepted", "max-skew-weight"}, rows)
}

// RunE7 sweeps the validation ladder.
func RunE7(cfg E7Config) (*E7Result, error) {
	pop, err := newPopulation(cfg.Seed, cfg.Users, cfg.WordsPerUser)
	if err != nil {
		return nil, err
	}
	dims := pop.vocab.Dims()
	models := pop.localModels()

	// The forgery: an in-range model claiming maximal weight for the
	// attacker's pet bigram, unrelated to what the attacker actually typed.
	forge := func(i int) fixed.Vector {
		v := fixed.NewVector(dims)
		dim, _ := pop.vocab.BigramIndex("donald", "dont")
		v[dim] = fixed.FromFloat(1.0)
		return v
	}

	levels := []struct {
		name string
		pred *predicate.Program
	}{
		{"none (blind trust)", predicate.AlwaysValid("always")},
		{"range check [0,1]", predicate.UnitRangeCheck("range", dims)},
		{"activity corroboration (NAB)", predicate.CrossCheck("corroborate", dims, e7Tolerance)},
	}

	res := &E7Result{}
	for _, level := range levels {
		analysis, err := predicate.Verify(level.pred)
		if err != nil {
			return nil, err
		}
		honestOK, forgedOK := 0, 0
		maxSkew := 0.0
		for i, m := range models {
			private := keyboard.CorroborationWeights(pop.Users[i].Activity, pop.vocab)
			runPred := func(v fixed.Vector) bool {
				contribution := make([]int64, len(v))
				for d, r := range v {
					contribution[d] = int64(r)
				}
				r, err := predicate.Run(level.pred, contribution, private, &predicate.Options{MaxSteps: analysis.CostBound})
				return err == nil && r.Verdict != 0
			}
			if runPred(m.Weights) {
				honestOK++
			}
			forged := forge(i)
			if runPred(forged) {
				forgedOK++
				for _, r := range forged {
					if f := r.Float(); f > maxSkew {
						maxSkew = f
					}
				}
			}
		}
		// At the "none" level even 538 passes.
		if level.name == "none (blind trust)" {
			maxSkew = 538
		}
		res.Rows = append(res.Rows, E7Row{
			Validation:     level.name,
			HonestAccepted: float64(honestOK) / float64(len(models)),
			ForgedAccepted: float64(forgedOK) / float64(len(models)),
			MaxSkewWeight:  maxSkew,
		})
	}
	return res, nil
}
