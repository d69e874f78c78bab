// Package experiments implements the reproduction harness: one runnable
// experiment per figure or claim of the paper, as indexed in README.md.
// Each experiment returns a typed result whose Table method prints its
// rows; cmd/experiments regenerates them all and the root bench_test.go
// wraps them as benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"glimmers/internal/fedml"
	"glimmers/internal/glimmer"
	"glimmers/internal/keyboard"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
)

// table renders rows with aligned columns.
func table(title string, header []string, rows [][]string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", title)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	return sb.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// result is what every experiment returns: typed fields for tests and
// benchmarks, one rendered table for people.
type result = interface{ Table() string }

// Index lists every experiment of README.md's index, in order, each
// runnable at its recorded default configuration. cmd/experiments and the
// golden-table test iterate it; nothing else keeps a list.
var Index = []struct {
	ID, Desc string
	Run      func() (result, error)
}{
	{"e1", "Fig 1a: raw sharing", at(RunE1, DefaultFigure1)},
	{"e2", "Fig 1b: federated learning", at(RunE2, DefaultFigure1)},
	{"e3", "Fig 1c: secure aggregation", at(RunE3, DefaultFigure1)},
	{"e4", "Fig 1d: poisoning attack", at(RunE4, DefaultFigure1)},
	{"e5", "Fig 2/3: glimmer defense", at(RunE5, DefaultFigure1)},
	{"e6", "§3: decomposition ablation", at(RunE6, DefaultE6)},
	{"e7", "§3: validation ladder", at(RunE7, DefaultE7)},
	{"e8", "§4.1: bot detection", at(RunE8, DefaultE8)},
	{"e9", "§4.2: glimmer-as-a-service", at(RunE9, DefaultE9)},
	{"e10", "§2: consortium comparison", at(RunE10, DefaultE10)},
	{"e11", "§1/§3: photos for maps", at(RunE11, DefaultE11)},
	{"e12", "§3: predicate verification", func() (result, error) { return RunE12() }},
	{"e13", "fleet simulator: fault sweep", at(RunE13, DefaultE13)},
}

// at binds an experiment to its default configuration.
func at[C any, R result](run func(C) (R, error), defaults func() C) func() (result, error) {
	return func() (result, error) { return run(defaults()) }
}

// World is the shared experiment fixture: an attestation root, a platform,
// and the paper's trending-keyboard population.
type World struct {
	AS       *tee.AttestationService
	Platform *tee.Platform
	Pop      *keyboard.Population
	Vocab    *keyboard.Vocabulary
}

// NewWorld builds the fixture deterministically from a seed.
func NewWorld(seed []byte, users, wordsPerUser int) (*World, error) {
	as, err := tee.NewAttestationService()
	if err != nil {
		return nil, err
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		return nil, err
	}
	pop, err := keyboard.TrendingScenario(seed, users, wordsPerUser)
	if err != nil {
		return nil, err
	}
	return &World{AS: as, Platform: platform, Pop: pop, Vocab: pop.Corpus.Vocabulary()}, nil
}

// localModels trains each user's partial model.
func (w *World) localModels() []*fedml.Model {
	models := make([]*fedml.Model, len(w.Pop.Users))
	for i, u := range w.Pop.Users {
		models[i] = fedml.TrainLocal(u.Activity, w.Vocab)
	}
	return models
}

// heldout generates evaluation activity from the same corpus.
func (w *World) heldout(n int) keyboard.Activity {
	return w.Pop.Corpus.GenerateActivity([]byte("heldout"), n)
}

// newService creates a vetted service over the world's trust root.
func (w *World) newService(name string, pred *predicate.Program) (*service.Service, error) {
	svc, err := service.New(name, w.AS.Root())
	if err != nil {
		return nil, err
	}
	if err := svc.SetPredicate(pred); err != nil {
		return nil, err
	}
	return svc, nil
}

// provisionDevice loads, vets, and provisions one Glimmer device.
func (w *World) provisionDevice(svc *service.Service, cfg glimmer.Config, masks map[uint64][]uint64) (*glimmer.Device, error) {
	dev, err := glimmer.NewDevice(w.Platform, cfg)
	if err != nil {
		return nil, err
	}
	svc.Vet(dev.Measurement())
	payload, err := svc.BasePayload()
	if err != nil {
		return nil, err
	}
	payload.Masks = masks
	if err := svc.Provision(dev, payload); err != nil {
		return nil, err
	}
	return dev, nil
}
