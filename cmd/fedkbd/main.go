// Command fedkbd drives the paper's running example end to end: a
// federated predictive-keyboard round across a simulated user population,
// with a configurable number of poisoning attackers, with and without
// Glimmer protection. It is experiments E4 and E5 behind flags: the
// protected round is aggregated by a node (internal/node, what glimmerd
// runs) fed over its edge.
//
// Usage:
//
//	fedkbd -users 24 -words 500 -attackers 1
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"glimmers/internal/experiments"
	"glimmers/internal/keyboard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	cfg := experiments.DefaultFigure1()
	fs := flag.NewFlagSet("fedkbd", flag.ExitOnError)
	fs.IntVar(&cfg.Users, "users", 24, "population size")
	fs.IntVar(&cfg.WordsPerUser, "words", 500, "words typed per user")
	fs.IntVar(&cfg.Attackers, "attackers", 1, "poisoning attackers (each submits 538)")
	seed := fs.String("seed", "fedkbd", "simulation seed")
	_ = fs.Parse(args) // ExitOnError: a bad flag never returns
	cfg.Seed = []byte(*seed)

	pop, err := keyboard.TrendingScenario(cfg.Seed, cfg.Users, cfg.WordsPerUser)
	if err != nil {
		return err
	}
	// Unprotected round: blinded aggregation hides the poison.
	unprotected, err := experiments.RunE4(cfg)
	if err != nil {
		return err
	}
	// Protected round: every contribution passes through a Glimmer.
	protected, err := experiments.RunE5(cfg)
	if err != nil {
		return err
	}

	vocab := pop.Corpus.Vocabulary()
	fmt.Fprintf(stdout, "population: %d users, %d words each, vocabulary %d (model dims %d)\n",
		cfg.Users, cfg.WordsPerUser, vocab.Size(), vocab.Dims())
	fmt.Fprintf(stdout, "trending bigrams: %v\n\n", pop.TopBigrams(5))
	fmt.Fprintf(stdout, "without glimmers: %q -> %q (weight %.3f)\n",
		experiments.AttackCue, unprotected.PoisonedTop, unprotected.PoisonedTopWeight)
	fmt.Fprintf(stdout, "with glimmers:    %q -> %q (weight %.3f)\n",
		experiments.AttackCue, protected.Suggestion, protected.Weight)
	fmt.Fprintf(stdout, "glimmers rejected %d/%d contributions at the client\n", protected.Rejected, cfg.Users)
	return nil
}
