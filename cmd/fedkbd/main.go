// Command fedkbd drives the paper's running example end to end: a
// federated predictive-keyboard round across a simulated user population,
// with a configurable number of poisoning attackers, with and without
// Glimmer protection.
//
// Usage:
//
//	fedkbd -users 24 -words 500 -attackers 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"glimmers/internal/blind"
	"glimmers/internal/fedml"
	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/keyboard"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fedkbd", flag.ExitOnError)
	users := fs.Int("users", 24, "population size")
	words := fs.Int("words", 500, "words typed per user")
	attackers := fs.Int("attackers", 1, "poisoning attackers (each submits 538)")
	seed := fs.String("seed", "fedkbd", "simulation seed")
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns
	if *attackers > *users {
		return fmt.Errorf("attackers (%d) cannot exceed users (%d)", *attackers, *users)
	}

	pop, err := keyboard.TrendingScenario([]byte(*seed), *users, *words)
	if err != nil {
		return err
	}
	vocab := pop.Corpus.Vocabulary()
	fmt.Fprintf(stdout, "population: %d users, %d words each, vocabulary %d (model dims %d)\n",
		*users, *words, vocab.Size(), vocab.Dims())
	fmt.Fprintf(stdout, "trending bigrams: %v\n\n", pop.TopBigrams(5))

	models := make([]*fedml.Model, *users)
	for i, u := range pop.Users {
		models[i] = fedml.TrainLocal(u.Activity, vocab)
	}
	for a := 0; a < *attackers; a++ {
		if err := fedml.Poison(models[a], "donald", "dont", 538); err != nil {
			return err
		}
	}

	// Unprotected round: blinded aggregation hides the poison.
	unprotected, err := fedml.Aggregate(models...)
	if err != nil {
		return err
	}
	top, w, err := unprotected.Predict("donald")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "without glimmers: \"donald\" -> %q (weight %.3f)\n", top, w)

	// Protected round: every contribution passes through a Glimmer.
	as, err := tee.NewAttestationService()
	if err != nil {
		return err
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		return err
	}
	svc, err := service.New("nextwordpredictive.com", as.Root())
	if err != nil {
		return err
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("unit-range", vocab.Dims())); err != nil {
		return err
	}
	cfg, err := svc.GlimmerConfig(vocab.Dims(), glimmer.ModeDealer, glimmer.DefaultPolicy)
	if err != nil {
		return err
	}
	masks, err := blind.ZeroSumMasks([]byte(*seed+"-masks"), *users, vocab.Dims())
	if err != nil {
		return err
	}
	const round = 1
	agg := service.NewPipeline(service.PipelineConfig{
		ServiceName: svc.Name(),
		Verify:      svc.ContributionVerifyKey(),
		Dim:         vocab.Dims(),
		Round:       round,
		Workers:     1,
		Shards:      1,
	})
	rejected := 0
	unusedMasks := fixed.NewVector(vocab.Dims())
	for i, m := range models {
		dev, err := glimmer.NewDevice(platform, cfg)
		if err != nil {
			return err
		}
		svc.Vet(dev.Measurement())
		agg.Vet(dev.Measurement())
		payload, err := svc.BasePayload()
		if err != nil {
			return err
		}
		payload.Masks = map[uint64][]uint64{round: glimmer.VectorToBits(masks[i])}
		if err := svc.Provision(dev, payload); err != nil {
			return err
		}
		sc, err := dev.Contribute(round, m.Weights, nil)
		if err != nil {
			if errors.Is(err, glimmer.ErrRejected) {
				rejected++
				unusedMasks.AddInPlace(masks[i])
				continue
			}
			return err
		}
		if err := agg.Add(glimmer.EncodeSignedContribution(sc)); err != nil {
			return err
		}
	}
	if err := agg.CorrectDropout(unusedMasks); err != nil {
		return err
	}
	mean, err := agg.Mean()
	if err != nil {
		return err
	}
	protected, err := fedml.FromWeights(vocab, mean)
	if err != nil {
		return err
	}
	topP, wP, err := protected.Predict("donald")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "with glimmers:    \"donald\" -> %q (weight %.3f)\n", topP, wP)
	fmt.Fprintf(stdout, "glimmers rejected %d/%d contributions at the client\n", rejected, *users)
	return nil
}
