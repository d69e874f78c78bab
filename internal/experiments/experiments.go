// Package experiments implements the reproduction harness: one runnable
// experiment per figure or claim of the paper, as indexed in README.md.
// Each experiment returns a typed result whose Table method prints its
// rows; Index lists them all, cmd/experiments regenerates them from it and
// the root bench_test.go wraps them as benchmarks.
//
// An experiment builds only what it uses: a keyboard population (E1–E5,
// E7), a trust root (E5, E6, E8–E11), and — for the two end-to-end claims,
// E5 and E9 — a node of the shipped assembly (internal/node). Every
// Glimmer device comes from service.Service.NewDevice.
package experiments

import (
	"fmt"
	"net"
	"strings"
	"text/tabwriter"

	"glimmers/internal/fedml"
	"glimmers/internal/gaas"
	"glimmers/internal/keyboard"
	"glimmers/internal/node"
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

// population is the paper's trending-keyboard cohort, built
// deterministically from a seed: what the Figure 1 ladder, the defense and
// the validation ladder (E1–E5, E7) train on.
type population struct {
	*keyboard.Population
	vocab *keyboard.Vocabulary
}

func newPopulation(seed []byte, users, wordsPerUser int) (*population, error) {
	pop, err := keyboard.TrendingScenario(seed, users, wordsPerUser)
	if err != nil {
		return nil, err
	}
	return &population{Population: pop, vocab: pop.Corpus.Vocabulary()}, nil
}

// localModels trains each user's partial model.
func (p *population) localModels() []*fedml.Model {
	models := make([]*fedml.Model, len(p.Users))
	for i, u := range p.Users {
		models[i] = fedml.TrainLocal(u.Activity, p.vocab)
	}
	return models
}

// heldout generates evaluation activity from the same corpus.
func (p *population) heldout(n int) keyboard.Activity {
	return p.Corpus.GenerateActivity([]byte("heldout"), n)
}

// trustRoot mints what an experiment that runs a Glimmer stands on: an
// attestation root, one platform certified under it, and a service that
// trusts the root and enforces pred. Devices come from svc.NewDevice.
func trustRoot(name string, pred *predicate.Program) (*tee.AttestationService, *tee.Platform, *service.Service, error) {
	as, err := tee.NewAttestationService()
	if err != nil {
		return nil, nil, nil, err
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		return nil, nil, nil, err
	}
	svc, err := service.New(name, as.Root())
	if err != nil {
		return nil, nil, nil, err
	}
	return as, platform, svc, svc.SetPredicate(pred)
}

// onNode runs drive against the shipped assembly — internal/node, what
// glimmerd starts — hosting one tenant behind a loopback listener. A drive
// that succeeds ends in Drain, whose Report is returned; one that fails
// ends in Kill. Either way the node's listener, handlers and store are
// gone when onNode returns.
func onNode(platform *tee.Platform, tenant service.TenantConfig, stateDir string,
	drive func(n *node.Node, addr string) error) (node.Report, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return node.Report{}, err
	}
	n, err := node.Start(node.Config{
		Tenants:  []service.TenantConfig{tenant},
		StateDir: stateDir,
		Listener: ln,
		Edge:     gaas.ServerConfig{Platform: platform},
	})
	if err != nil {
		return node.Report{}, err
	}
	if err := drive(n, ln.Addr().String()); err != nil {
		n.Kill()
		return node.Report{}, err
	}
	return n.Drain()
}
