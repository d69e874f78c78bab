package experiments

import (
	"fmt"

	"glimmers/internal/sim"
)

// E13 is the fault-sweep: the full stack (enclave Glimmers, concurrent
// sharded ingest, seal/close lifecycle, dropout correction by the dealer's reveal) driven by
// the fleet simulator at increasing fault rates, measuring how acceptance
// degrades while exactness and the end-of-round invariants must not. This
// is the regime the paper targets — aggregation that stays exact and
// attributable under churn and adversarial traffic — and the baseline
// every later scaling PR benchmarks against.

// E13Config parameterizes the fault sweep.
type E13Config struct {
	Seed    int64
	Devices int
	Rounds  int
	Overlap int
	Dim     int
	// FaultRates is the sweep: each rate drives every fault mechanism's
	// probability (dropout/byzantine/corrupt-signature split the primary
	// rate; duplicate/replay/garbage/out-of-window inject at the full
	// rate).
	FaultRates []float64
	// Stragglers per round race Seal at every sweep point.
	Stragglers int
}

// DefaultE13 is the recorded configuration.
func DefaultE13() E13Config {
	return E13Config{
		Seed:       13,
		Devices:    12,
		Rounds:     4,
		Overlap:    2,
		Dim:        8,
		FaultRates: []float64{0, 0.1, 0.25, 0.4},
		Stragglers: 1,
	}
}

// planAt spreads one sweep rate across the fault mechanisms.
func planAt(rate float64, stragglers int) sim.FaultPlan {
	return sim.FaultPlan{
		DropoutRate:     rate * 0.4,
		ByzantineRate:   rate * 0.3,
		CorruptSigRate:  rate * 0.3,
		DuplicateRate:   rate,
		ReplayRate:      rate,
		GarbageRate:     rate,
		OutOfWindowRate: rate,
		Stragglers:      stragglers,
	}
}

// E13Row is one sweep point.
type E13Row struct {
	FaultRate float64
	// Accepted counts contributions in sealed aggregates (including
	// stragglers that won their race with Seal).
	Accepted int
	// ClientRejected were refused inside the Glimmer (byzantine values).
	ClientRejected int
	// ServiceRejected were refused by the service (bad signatures,
	// duplicates, replays, garbage, out-of-window, losing stragglers).
	ServiceRejected int
	// DropoutsRecovered counts dropouts whose masks the dealer's reveal
	// covered and CorrectDropout removed.
	DropoutsRecovered int
	// Exact: every sealed round's aggregate equalled the exact sum of its
	// accepted honest contributions.
	Exact bool
	// InvariantsOK: every end-of-round invariant held.
	InvariantsOK bool
	RoundsPerSec float64
}

// E13Result is the sweep outcome.
type E13Result struct {
	Cfg  E13Config
	Rows []E13Row
	// Violations aggregates any invariant breaches across the sweep (must
	// be empty).
	Violations []string
}

// Table renders the result.
func (r *E13Result) Table() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			f3(row.FaultRate),
			fmt.Sprintf("%d", row.Accepted),
			fmt.Sprintf("%d", row.ClientRejected),
			fmt.Sprintf("%d", row.ServiceRejected),
			fmt.Sprintf("%d", row.DropoutsRecovered),
			fmt.Sprintf("%v", row.Exact),
			fmt.Sprintf("%v", row.InvariantsOK),
			fmt.Sprintf("%.1f", row.RoundsPerSec),
		}
	}
	out := table(
		fmt.Sprintf("E13: fault sweep — %d devices × %d rounds (overlap %d), invariants enforced",
			r.Cfg.Devices, r.Cfg.Rounds, r.Cfg.Overlap),
		[]string{"fault-rate", "accepted", "client-rej", "service-rej", "dropouts-recovered", "exact", "invariants", "rounds/s"},
		rows)
	if len(r.Violations) > 0 {
		out += fmt.Sprintf("INVARIANT VIOLATIONS: %v\n", r.Violations)
	}
	return out
}

// RunE13 sweeps the fault rate through the fleet simulator.
func RunE13(cfg E13Config) (*E13Result, error) {
	res := &E13Result{Cfg: cfg}
	for _, rate := range cfg.FaultRates {
		rep, err := sim.Scenario{
			Name: fmt.Sprintf("e13-rate-%g", rate),
			Config: sim.Config{
				Seed:    cfg.Seed,
				Devices: cfg.Devices,
				Rounds:  cfg.Rounds,
				Overlap: cfg.Overlap,
				Dim:     cfg.Dim,
				Faults:  planAt(rate, cfg.Stragglers),
			},
		}.Run()
		if err != nil {
			return nil, fmt.Errorf("e13 rate %g: %w", rate, err)
		}
		exact := true
		dropouts := 0
		for _, rr := range rep.Rounds {
			exact = exact && rr.Exact
			dropouts += rr.DropoutsRecovered
		}
		res.Rows = append(res.Rows, E13Row{
			FaultRate:         rate,
			Accepted:          rep.Totals[sim.CatAccepted] + rep.Totals[sim.CatStragglerAccepted],
			ClientRejected:    rep.Totals[sim.CatClientRejected],
			ServiceRejected:   rep.Totals.ServiceRejections(),
			DropoutsRecovered: dropouts,
			Exact:             exact,
			InvariantsOK:      rep.Ok(),
			RoundsPerSec:      rep.RoundsPerSec(),
		})
		res.Violations = append(res.Violations, rep.Violations...)
	}
	return res, nil
}
