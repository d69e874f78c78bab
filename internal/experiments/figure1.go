package experiments

import (
	"fmt"
	"slices"

	"glimmers/internal/blind"
	"glimmers/internal/fedml"
	"glimmers/internal/fixed"
	"glimmers/internal/keyboard"
	"glimmers/internal/xcrypto"
)

// Figure1Config parameterizes the E1–E5 scenario progression.
type Figure1Config struct {
	Seed         []byte
	Users        int
	WordsPerUser int
	HeldoutWords int
	// Attackers is how many users (the first ones) mount Figure 1d's
	// attack. AttackCue/AttackTarget is the suggestion they want to force;
	// AttackWeight is the illegal value (the paper's 538).
	Attackers    int
	AttackCue    string
	AttackTarget string
	AttackWeight float64
}

// poison turns the first Attackers local models into attackers' models.
func (cfg Figure1Config) poison(models []*fedml.Model) error {
	if cfg.Attackers < 0 || cfg.Attackers > len(models) {
		return fmt.Errorf("attackers (%d) must be between 0 and users (%d)", cfg.Attackers, len(models))
	}
	for _, m := range models[:cfg.Attackers] {
		if err := fedml.Poison(m, cfg.AttackCue, cfg.AttackTarget, cfg.AttackWeight); err != nil {
			return err
		}
	}
	return nil
}

// DefaultFigure1 is the canonical configuration the benchmarks record.
func DefaultFigure1() Figure1Config {
	return Figure1Config{
		Seed:         []byte("glimmers-figure1"),
		Users:        24,
		WordsPerUser: 500,
		HeldoutWords: 3000,
		Attackers:    1,
		AttackCue:    "donald",
		AttackTarget: "dont",
		AttackWeight: 538,
	}
}

// E1Result compares raw sharing (Figure 1a) against keeping data local:
// utility versus privacy.
type E1Result struct {
	Rows []E1Row
}

// E1Row is one sharing scheme's utility/privacy point.
type E1Row struct {
	Scheme string
	// Accuracy is next-word prediction accuracy on held-out text.
	Accuracy float64
	// PrivacyLoss is the fraction of a user's distinct typed bigrams the
	// service can read.
	PrivacyLoss float64
}

// Table renders the result.
func (r *E1Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Scheme, f3(row.Accuracy), f3(row.PrivacyLoss)}
	}
	return table("E1 (Fig 1a): raw sharing — utility vs privacy",
		[]string{"scheme", "accuracy", "privacy-loss"}, rows)
}

// RunE1 reproduces Figure 1a's premise: sharing raw keystrokes buys
// accuracy (trends emerge) at total privacy loss; staying local keeps
// privacy and loses the trend signal.
func RunE1(cfg Figure1Config) (*E1Result, error) {
	pop, err := newPopulation(cfg.Seed, cfg.Users, cfg.WordsPerUser)
	if err != nil {
		return nil, err
	}
	heldout := pop.heldout(cfg.HeldoutWords)

	// Local-only: each user's own model; average accuracy.
	var localAcc float64
	models := pop.localModels()
	for _, m := range models {
		localAcc += m.Accuracy(heldout)
	}
	localAcc /= float64(len(models))

	// Raw sharing: the service sees everything and trains on the union.
	combined := make([]int64, pop.vocab.Dims())
	for _, u := range pop.Users {
		for dim, c := range u.Activity.BigramCounts(pop.vocab) {
			combined[dim] += c
		}
	}
	weights := make(fixed.Vector, pop.vocab.Dims())
	for dim, v := range keyboard.WeightsFromCounts(combined, pop.vocab) {
		weights[dim] = fixed.Ring(v)
	}
	rawModel, err := fedml.FromWeights(pop.vocab, weights)
	if err != nil {
		return nil, err
	}

	return &E1Result{Rows: []E1Row{
		{Scheme: "local-only (no sharing)", Accuracy: localAcc, PrivacyLoss: 0},
		{Scheme: "raw sharing (Fig 1a)", Accuracy: rawModel.Accuracy(heldout), PrivacyLoss: 1.0},
	}}, nil
}

// pairwiseParties builds an n-party pairwise-masking group. Each party's
// X25519 key is drawn from the experiment seed, so the masks, and the
// inversion recall they leave, are the same on every run.
func pairwiseParties(seed []byte, n int) ([]*blind.Party, error) {
	prg := xcrypto.NewPRG(append(slices.Clip(seed), 'p'))
	keys := make([]*xcrypto.DHKey, n)
	roster := make([][]byte, n)
	for i := range keys {
		var priv [32]byte
		prg.Read(priv[:]) // never fails
		k, err := xcrypto.ParseDHKey(priv[:])
		if err != nil {
			return nil, err
		}
		keys[i] = k
		roster[i] = k.PublicBytes()
	}
	parties := make([]*blind.Party, n)
	for i := range parties {
		p, err := blind.NewParty(i, keys[i], roster)
		if err != nil {
			return nil, err
		}
		parties[i] = p
	}
	return parties, nil
}

// E2Result quantifies Figure 1b: federated learning preserves utility but
// local models invert.
type E2Result struct {
	// FederatedAccuracy is the FedAvg global model's accuracy.
	FederatedAccuracy float64
	// RawAccuracy is the raw-sharing ceiling for comparison.
	RawAccuracy float64
	// MeanInversionRecall is the average fraction of a user's typed bigrams
	// recovered from their local model (Fredrikson-style inversion).
	MeanInversionRecall float64
	// TrendLearned reports whether the global model suggests "trump" after
	// "donald" — the paper's headline benefit.
	TrendLearned bool
}

// Table renders the result.
func (r *E2Result) Table() string {
	return table("E2 (Fig 1b): federated learning — utility kept, models invert",
		[]string{"metric", "value"},
		[][]string{
			{"federated accuracy", f3(r.FederatedAccuracy)},
			{"raw-sharing accuracy", f3(r.RawAccuracy)},
			{"mean inversion recall", f3(r.MeanInversionRecall)},
			{"donald->trump learned", fmt.Sprintf("%v", r.TrendLearned)},
		})
}

// RunE2 reproduces Figure 1b.
func RunE2(cfg Figure1Config) (*E2Result, error) {
	pop, err := newPopulation(cfg.Seed, cfg.Users, cfg.WordsPerUser)
	if err != nil {
		return nil, err
	}
	heldout := pop.heldout(cfg.HeldoutWords)
	models := pop.localModels()
	global, err := fedml.Aggregate(models...)
	if err != nil {
		return nil, err
	}
	e1, err := RunE1(cfg)
	if err != nil {
		return nil, err
	}

	var recall float64
	for i, m := range models {
		truth := pop.Users[i].Activity.DistinctBigrams(pop.vocab)
		recovered := fedml.InvertModel(m, pop.vocab.Dims())
		recall += fedml.InversionRecall(recovered, truth)
	}
	recall /= float64(len(models))

	pred, _, err := global.Predict("donald")
	if err != nil {
		return nil, err
	}
	return &E2Result{
		FederatedAccuracy:   global.Accuracy(heldout),
		RawAccuracy:         e1.Rows[1].Accuracy,
		MeanInversionRecall: recall,
		TrendLearned:        pred == "trump",
	}, nil
}

// E3Result verifies Figure 1c: blinded aggregation is exact while blinded
// individuals reveal (almost) nothing.
type E3Result struct {
	Rows []E3Row
	// DropoutRecovered reports whether pairwise aggregation survived a
	// client dropout via seed reveal.
	DropoutRecovered bool
}

// E3Row is one blinding construction's outcome.
type E3Row struct {
	Scheme string
	// AggregateExact: the blinded aggregate equals the clear aggregate
	// bit-for-bit.
	AggregateExact bool
	// BlindedInversionRecall is inversion recall run against a blinded
	// individual contribution (should be near chance).
	BlindedInversionRecall float64
	// ClearInversionRecall is the unblinded baseline (near 1).
	ClearInversionRecall float64
}

// Table renders the result.
func (r *E3Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{row.Scheme, fmt.Sprintf("%v", row.AggregateExact),
			f3(row.BlindedInversionRecall), f3(row.ClearInversionRecall)}
	}
	out := table("E3 (Fig 1c): secure aggregation — exact sums, opaque individuals",
		[]string{"scheme", "aggregate-exact", "inversion(blinded)", "inversion(clear)"}, rows)
	return out + fmt.Sprintf("dropout recovered: %v\n", r.DropoutRecovered)
}

// RunE3 reproduces Figure 1c with both blinding constructions.
func RunE3(cfg Figure1Config) (*E3Result, error) {
	pop, err := newPopulation(cfg.Seed, cfg.Users, cfg.WordsPerUser)
	if err != nil {
		return nil, err
	}
	models := pop.localModels()
	n, dims := len(models), pop.vocab.Dims()
	clearSum := fixed.NewVector(dims)
	for _, m := range models {
		clearSum.AddInPlace(m.Weights)
	}

	res := &E3Result{}

	evaluate := func(scheme string, blinded []fixed.Vector) error {
		sum := fixed.NewVector(dims)
		for _, b := range blinded {
			sum.AddInPlace(b)
		}
		exact := true
		for d := range sum {
			if sum[d] != clearSum[d] {
				exact = false
				break
			}
		}
		truth := pop.Users[0].Activity.DistinctBigrams(pop.vocab)
		k := len(truth)
		blindModel, err := fedml.FromWeights(pop.vocab, blinded[0])
		if err != nil {
			return err
		}
		clearRecall := fedml.InversionRecall(fedml.InvertModel(models[0], k), truth)
		blindRecall := fedml.InversionRecall(fedml.InvertModel(blindModel, k), truth)
		res.Rows = append(res.Rows, E3Row{
			Scheme:                 scheme,
			AggregateExact:         exact,
			BlindedInversionRecall: blindRecall,
			ClearInversionRecall:   clearRecall,
		})
		return nil
	}

	// Dealer masks.
	masks, err := blind.ZeroSumMasks(append(cfg.Seed, 'd'), n, dims)
	if err != nil {
		return nil, err
	}
	dealerBlinded := make([]fixed.Vector, n)
	for i, m := range models {
		dealerBlinded[i], err = blind.Apply(m.Weights, masks[i])
		if err != nil {
			return nil, err
		}
	}
	if err := evaluate("dealer masks (§3)", dealerBlinded); err != nil {
		return nil, err
	}

	// Pairwise masks.
	parties, err := pairwiseParties(cfg.Seed, n)
	if err != nil {
		return nil, err
	}
	const round = 1
	pairBlinded := make([]fixed.Vector, n)
	for i, m := range models {
		mask, err := parties[i].Mask(dims, round)
		if err != nil {
			return nil, err
		}
		pairBlinded[i], err = blind.Apply(m.Weights, mask)
		if err != nil {
			return nil, err
		}
	}
	if err := evaluate("pairwise masks (Bonawitz)", pairBlinded); err != nil {
		return nil, err
	}

	// Dropout: client n-1 never submits; survivors reveal seeds.
	partial := fixed.NewVector(dims)
	for i := 0; i < n-1; i++ {
		partial.AddInPlace(pairBlinded[i])
	}
	seeds := make(map[int][]byte)
	for i := 0; i < n-1; i++ {
		s, err := parties[i].SeedWith(n - 1)
		if err != nil {
			return nil, err
		}
		seeds[i] = s
	}
	recovered, err := blind.RecoverMask(n-1, n, dims, round, seeds)
	if err != nil {
		return nil, err
	}
	partial.AddInPlace(recovered)
	wantPartial := fixed.NewVector(dims)
	for i := 0; i < n-1; i++ {
		wantPartial.AddInPlace(models[i].Weights)
	}
	res.DropoutRecovered = true
	for d := range partial {
		if partial[d] != wantPartial[d] {
			res.DropoutRecovered = false
			break
		}
	}
	return res, nil
}

// E4Result demonstrates Figure 1d: the poisoning attack and its
// invisibility under blinding.
type E4Result struct {
	// CleanTop and PoisonedTop are the global model's suggestion for the
	// cue word before and after poisoning.
	CleanTop    string
	PoisonedTop string
	// Flipped reports whether the attacker's target took over.
	Flipped bool
	// PoisonedAggregateWeight is the poisoned bigram's aggregate weight —
	// far outside anything an honest population can produce.
	PoisonedAggregateWeight float64
	// PoisonedTopWeight is the weight behind PoisonedTop (the same number
	// once the attack lands).
	PoisonedTopWeight float64
	// DetectableUnblinded: a service-side range check catches the raw 538.
	DetectableUnblinded bool
	// DetectableBlinded: the same check on blinded contributions cannot
	// separate the attacker from honest users (it flags everyone).
	DetectableBlinded bool
	// BlindedFlaggedHonest / BlindedFlaggedAttacker: fraction of each
	// flagged by the service-side check under blinding.
	BlindedFlaggedHonest   float64
	BlindedFlaggedAttacker float64
}

// Table renders the result.
func (r *E4Result) Table() string {
	return table("E4 (Fig 1d): poisoning under blinding — unstoppable server-side",
		[]string{"metric", "value"},
		[][]string{
			{"clean suggestion", r.CleanTop},
			{"poisoned suggestion", r.PoisonedTop},
			{"suggestion flipped", fmt.Sprintf("%v", r.Flipped)},
			{"poisoned aggregate weight", f3(r.PoisonedAggregateWeight)},
			{"detectable unblinded", fmt.Sprintf("%v", r.DetectableUnblinded)},
			{"detectable blinded", fmt.Sprintf("%v", r.DetectableBlinded)},
			{"blinded flagged (honest)", f3(r.BlindedFlaggedHonest)},
			{"blinded flagged (attacker)", f3(r.BlindedFlaggedAttacker)},
		})
}

// RunE4 reproduces Figure 1d.
func RunE4(cfg Figure1Config) (*E4Result, error) {
	pop, err := newPopulation(cfg.Seed, cfg.Users, cfg.WordsPerUser)
	if err != nil {
		return nil, err
	}
	models := pop.localModels()
	clean, err := fedml.Aggregate(models...)
	if err != nil {
		return nil, err
	}
	if err := cfg.poison(models); err != nil {
		return nil, err
	}
	poisoned, err := fedml.Aggregate(models...)
	if err != nil {
		return nil, err
	}
	skew, err := fedml.MeasureSkew(clean, poisoned, cfg.AttackCue, cfg.AttackTarget)
	if err != nil {
		return nil, err
	}

	// Service-side detection, unblinded: range-check each raw local model.
	inRange := func(v fixed.Vector) bool {
		for _, r := range v {
			if !r.InUnitRange() {
				return false
			}
		}
		return true
	}
	detectableUnblinded := slices.ContainsFunc(models[:cfg.Attackers],
		func(m *fedml.Model) bool { return !inRange(m.Weights) })

	// Service-side detection, blinded: the same check over blinded vectors.
	n, dims := len(models), pop.vocab.Dims()
	masks, err := blind.ZeroSumMasks(append(cfg.Seed, 'p'), n, dims)
	if err != nil {
		return nil, err
	}
	flaggedHonest, flaggedAttacker := 0, 0
	for i, m := range models {
		b, err := blind.Apply(m.Weights, masks[i])
		if err != nil {
			return nil, err
		}
		if !inRange(b) {
			if i < cfg.Attackers {
				flaggedAttacker++
			} else {
				flaggedHonest++
			}
		}
	}
	// A group with nobody in it has nobody flagged.
	rate := func(flagged, of int) float64 { return float64(flagged) / float64(max(of, 1)) }
	honestRate, attackerRate := rate(flaggedHonest, n-cfg.Attackers), rate(flaggedAttacker, cfg.Attackers)
	// "Detectable" means the check separates attacker from honest users.
	detectableBlinded := attackerRate > honestRate+0.5

	return &E4Result{
		CleanTop:                skew.CleanTop,
		PoisonedTop:             skew.PoisonedTop,
		Flipped:                 skew.Flipped,
		PoisonedAggregateWeight: skew.PoisonedW,
		PoisonedTopWeight:       skew.PoisonedTopW,
		DetectableUnblinded:     detectableUnblinded,
		DetectableBlinded:       detectableBlinded,
		BlindedFlaggedHonest:    honestRate,
		BlindedFlaggedAttacker:  attackerRate,
	}, nil
}
