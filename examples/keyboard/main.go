// Keyboard: the paper's Figure 1 progression as one runnable story.
//
// A population of users types on simulated keyboards while a trend
// ("donald" → "trump") sweeps through. The example walks the four panels of
// Figure 1 — raw sharing, federated learning, secure aggregation, the
// poisoning attack — and then adds the Glimmer defense.
//
// Run with: go run ./examples/keyboard
package main

import (
	"errors"
	"fmt"
	"log"

	"glimmers"
	"glimmers/internal/blind"
	"glimmers/internal/fedml"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/keyboard"
)

func main() {
	const (
		users = 16
		words = 400
		round = 1
	)
	pop, err := keyboard.TrendingScenario([]byte("example"), users, words)
	if err != nil {
		log.Fatal(err)
	}
	vocab := pop.Corpus.Vocabulary()
	fmt.Printf("Fig 1a — raw sharing: the service would see every keystroke.\n")
	fmt.Printf("  user-000's first bigrams are fully visible; privacy loss is total.\n\n")

	// Fig 1b: federated learning — only models are shared...
	models := make([]*fedml.Model, users)
	for i, u := range pop.Users {
		models[i] = fedml.TrainLocal(u.Activity, vocab)
	}
	global, err := fedml.Aggregate(models...)
	if err != nil {
		log.Fatal(err)
	}
	next, _, err := global.Predict("donald")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 1b — federated learning: global model suggests %q after \"donald\".\n", next)
	truth := pop.Users[0].Activity.DistinctBigrams(vocab)
	recall := fedml.InversionRecall(fedml.InvertModel(models[0], vocab.Dims()), truth)
	fmt.Printf("  ...but inverting user-000's local model recovers %.0f%% of their typed bigrams.\n\n", recall*100)

	// Fig 1c: secure aggregation hides individual models.
	masks, err := blind.ZeroSumMasks([]byte("example-round"), users, vocab.Dims())
	if err != nil {
		log.Fatal(err)
	}
	blindSum := fixed.NewVector(vocab.Dims())
	for i, m := range models {
		b, err := blind.Apply(m.Weights, masks[i])
		if err != nil {
			log.Fatal(err)
		}
		blindSum.AddInPlace(b)
	}
	clearSum := fixed.NewVector(vocab.Dims())
	for _, m := range models {
		clearSum.AddInPlace(m.Weights)
	}
	exact := true
	for d := range clearSum {
		if clearSum[d] != blindSum[d] {
			exact = false
		}
	}
	fmt.Printf("Fig 1c — secure aggregation: blinded aggregate exact = %v; individuals look random.\n\n", exact)

	// Fig 1d: under blinding, a poisoner is invisible.
	if err := fedml.Poison(models[0], "donald", "dont", 538); err != nil {
		log.Fatal(err)
	}
	poisoned, err := fedml.Aggregate(models...)
	if err != nil {
		log.Fatal(err)
	}
	skew, err := fedml.MeasureSkew(global, poisoned, "donald", "dont")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 1d — poisoning: user-000 submits 538; suggestion flips to %q (aggregate weight %.1f).\n",
		skew.PoisonedTop, skew.PoisonedW)
	fmt.Printf("  The service cannot range-check blinded values; the attack is undetectable server-side.\n\n")

	// Fig 2/3: the Glimmer defense.
	tb, err := glimmers.NewTestbed("nextwordpredictive.com", glimmers.UnitRangeCheck("unit-range", vocab.Dims()))
	if err != nil {
		log.Fatal(err)
	}
	reg := glimmers.NewRegistry(0)
	tenant, err := reg.AddTenant(glimmers.TenantConfig{
		Name:    tb.Service.Name(),
		Verify:  tb.Service.ContributionVerifyKey(),
		Dim:     vocab.Dims(),
		Workers: 1,
		Shards:  1,
	})
	if err != nil {
		log.Fatal(err)
	}
	agg := tenant.Manager().Round(round)
	rejected := 0
	unused := fixed.NewVector(vocab.Dims())
	for i, m := range models {
		dev, err := tb.NewProvisionedDevice(vocab.Dims(), glimmers.ModeDealer,
			map[uint64][]uint64{round: glimmers.VectorToBits(masks[i])})
		if err != nil {
			log.Fatal(err)
		}
		tenant.Manager().Vet(dev.Measurement())
		sc, err := dev.Contribute(round, m.Weights, nil)
		if err != nil {
			if errors.Is(err, glimmer.ErrRejected) {
				rejected++
				unused.AddInPlace(masks[i])
				continue
			}
			log.Fatal(err)
		}
		if err := reg.Ingest(glimmers.EncodeSignedContribution(sc)); err != nil {
			log.Fatal(err)
		}
	}
	if err := agg.CorrectDropout(unused); err != nil {
		log.Fatal(err)
	}
	mean, err := agg.Mean()
	if err != nil {
		log.Fatal(err)
	}
	defended, err := fedml.FromWeights(vocab, mean)
	if err != nil {
		log.Fatal(err)
	}
	top, _, err := defended.Predict("donald")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Fig 2/3 — with Glimmers: %d/%d contributions rejected at the client;\n", rejected, users)
	fmt.Printf("  global model still suggests %q after \"donald\".\n", top)
}
