// Package sim is the fleet simulator: a deterministic, seeded harness that
// assembles the real stack — tee enclaves running the Glimmer
// validate→blind→sign pipeline, a service.RoundManager with its concurrent
// sharded ingest pipelines, and the gaas transport either in-process or
// over loopback TCP/TLS — and drives N simulated devices through M overlapping
// aggregation rounds under a pluggable fault plan.
//
// The simulator is the proving ground for the paper's end-to-end loop
// (provision → validate → blind → sign → batch-submit → dedup → seal →
// dropout-correct → exact sum) at fleet scale and under adversarial
// conditions: dropouts recovered via Shamir-shared masks, duplicate and
// replayed submissions, corrupted signatures and frames, out-of-window
// round numbers, byzantine clients pushing out-of-range values, and slow
// stragglers racing Seal. After every round it checks the invariants the
// design promises:
//
//   - the sealed aggregate equals the exact sum of the honest
//     contributions that were accepted, bit for bit, after dropout
//     correction;
//   - the accepted count matches the pipeline's count;
//   - every injected fault is accounted for by a rejection (tallied
//     globally across manager- and pipeline-level counters);
//   - no dropout correction is possible after Close, and the closed
//     aggregate is immutable.
//
// Determinism: all workload decisions (values, fault roles, schedules) are
// drawn from a single seeded generator in a planning pass before any
// concurrency starts, so the same seed yields the same accept/reject/sum
// trace. The one deliberate exception is stragglers, which race Seal by
// design; plans with Stragglers > 0 have a nondeterministic straggler
// outcome (observed and accounted either way), so reproducibility
// comparisons should use plans without them.
package sim

import (
	"fmt"
	"strings"
	"time"

	"glimmers/internal/botdetect"
)

// TransportKind selects how signed contributions travel from devices to
// the aggregation pipeline.
type TransportKind int

const (
	// TransportDirect hands batches to the RoundManager in-process — the
	// co-located deployment, and the fastest path.
	TransportDirect TransportKind = iota
	// TransportTCP routes batches through gaas over loopback TCP — the
	// cmd/glimmerd deployment.
	TransportTCP
	// TransportTLS routes batches through gaas over loopback TCP wrapped
	// in TLS — the hardened public-edge deployment of cmd/glimmerd with
	// -tls-self-signed.
	TransportTLS
)

// String names the transport for reports.
func (t TransportKind) String() string {
	switch t {
	case TransportDirect:
		return "direct"
	case TransportTCP:
		return "tcp"
	case TransportTLS:
		return "tls"
	}
	return fmt.Sprintf("transport(%d)", int(t))
}

// FaultPlan configures the adversarial/faulty workload. Primary rates
// select, per (device, round), what the device does instead of an honest
// submission; they are tried in the order listed and at most one applies.
// Injection rates add extra hostile traffic on top of a device's honest
// submission. All selections are drawn deterministically from the
// simulation seed.
type FaultPlan struct {
	// DropoutRate: the device goes silent for the round. Its dealer mask
	// is Shamir-shared at provisioning time; the simulator reconstructs it
	// from surviving shares and applies CorrectDropout.
	DropoutRate float64
	// ByzantineRate: the device submits an out-of-range contribution. The
	// Glimmer's validation predicate refuses it client-side, so nothing
	// reaches the service; the unused mask is corrected like a dropout.
	ByzantineRate float64
	// CorruptSigRate: the device's signed contribution is flipped in
	// flight (one signature byte), so the service rejects it.
	CorruptSigRate float64

	// DuplicateRate: the device re-submits its already-accepted
	// contribution; the dedup layer must reject the copy.
	DuplicateRate float64
	// ReplayRate: the device replays its accepted contribution from an
	// earlier, already-sealed round; the sealed pipeline must refuse it.
	ReplayRate float64
	// GarbageRate: the device submits undecodable bytes; the manager must
	// refuse them before any round state is touched.
	GarbageRate float64
	// OutOfWindowRate: the device submits a validly signed contribution
	// naming a round far outside the admission window; the manager must
	// refuse to create the round.
	OutOfWindowRate float64

	// Stragglers is the number of honest devices per round whose
	// submission is withheld until it races Seal. Each straggler is
	// submitted individually and its observed outcome (accepted or
	// ErrRoundSealed) feeds the invariant checks either way.
	Stragglers int
}

// Workload selects what a tenant's devices contribute and which predicate
// their Glimmers enforce.
type Workload int

const (
	// WorkloadRange: unit-range vectors validated by the paper's canonical
	// [0,1] check. Byzantine devices submit an out-of-range value.
	WorkloadRange Workload = iota
	// WorkloadBotdetect: §4.1 bot detection as an aggregation tenant —
	// devices contribute the one-bit verdict vector [1], gated by the
	// behavioural detector over private signals, so a round's exact sum is
	// its human-session count. Byzantine devices are bots: the detector
	// refuses their sessions inside the enclave.
	WorkloadBotdetect
)

// Config sizes one simulation.
type Config struct {
	// Seed drives every workload decision. Same seed, same plan.
	Seed int64
	// Devices is the fleet size (≥ 4: the round-admission anchor needs at
	// least two honest accepts per round, and dropout recovery needs
	// share holders).
	Devices int
	// Rounds is how many aggregation rounds the fleet completes.
	Rounds int
	// Overlap is how many rounds are open concurrently (≥ 1): round r is
	// sealed only after the cohort for round r+Overlap-1 has submitted.
	Overlap int
	// Dim is the contribution dimensionality.
	Dim int
	// Workers and Shards size each round's ingest pipeline (see
	// service.TenantConfig).
	Workers int
	Shards  int
	// Transport selects the submission path.
	Transport TransportKind
	// BatchSize caps contributions per submitted batch (default 16).
	BatchSize int
	// Submitters is the number of concurrent submission lanes — parallel
	// gaas connections or concurrent IngestBatch callers (default 4).
	Submitters int
	// ShamirThreshold is k for dropout mask recovery (default: majority
	// of the other devices).
	ShamirThreshold int
	// Faults is the adversarial workload.
	Faults FaultPlan

	// ServiceName names the simulated service (the tenant's routing key).
	ServiceName string
	// Workload selects the tenant's contribution shape and predicate.
	Workload Workload

	// Ticketed switches the fleet onto the attested-session-ticket fast
	// path: after provisioning, every device runs one grant exchange (one
	// signature verification service-side) and MACs its contributions instead
	// of signing them. All fault semantics carry over — a corrupted
	// submission now means a flipped MAC — and the run additionally probes
	// the ticket-specific attacks (forged MAC on a fresh round, round
	// outside the ticket window, expired ticket, ticket replayed onto a
	// tenant that never granted it) before reconciling the accounting.
	Ticketed bool
}

// withDefaults fills zero values and validates the configuration.
func (c Config) withDefaults() (Config, error) {
	if c.Devices == 0 {
		c.Devices = 8
	}
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.Overlap == 0 {
		c.Overlap = 1
	}
	if c.Workload == WorkloadBotdetect {
		// The verdict contribution is one bit by construction.
		if c.Dim == 0 {
			c.Dim = botdetect.TenantDim
		}
		if c.Dim != botdetect.TenantDim {
			return c, fmt.Errorf("sim: botdetect workload is %d-dimensional, got dim %d", botdetect.TenantDim, c.Dim)
		}
	}
	if c.Dim == 0 {
		c.Dim = 8
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.Submitters == 0 {
		c.Submitters = 4
	}
	if c.ServiceName == "" {
		c.ServiceName = "sim.glimmers.example"
	}
	if c.ShamirThreshold == 0 {
		c.ShamirThreshold = (c.Devices-1)/2 + 1
	}
	switch {
	case c.Devices < 4:
		return c, fmt.Errorf("sim: need at least 4 devices, got %d", c.Devices)
	case c.Rounds < 1:
		return c, fmt.Errorf("sim: need at least 1 round, got %d", c.Rounds)
	case c.Overlap < 1 || c.Overlap > c.Rounds:
		return c, fmt.Errorf("sim: overlap %d outside [1, %d]", c.Overlap, c.Rounds)
	case c.Dim < 1:
		return c, fmt.Errorf("sim: dimension must be positive, got %d", c.Dim)
	case c.ShamirThreshold < 1 || c.ShamirThreshold > c.Devices-1:
		return c, fmt.Errorf("sim: shamir threshold %d outside [1, %d]", c.ShamirThreshold, c.Devices-1)
	case c.Faults.Stragglers < 0 || c.Faults.Stragglers > c.Devices-2:
		return c, fmt.Errorf("sim: stragglers %d outside [0, %d]", c.Faults.Stragglers, c.Devices-2)
	}
	return c, nil
}

// Scenario is a named workload: the ~20-line spec from which Run assembles
// the whole stack, executes the plan, and verifies the invariants.
type Scenario struct {
	Name   string
	Config Config
}

// Run executes the scenario: a single-tenant deployment of the full
// multi-tenant stack (one Registry, one tenant). Use MultiScenario for
// several tenants sharing the substrate.
func (s Scenario) Run() (*Report, error) {
	cfg, err := s.Config.withDefaults()
	if err != nil {
		return nil, err
	}
	st, err := newStack(cfg.Transport, cfg.Rounds+16)
	if err != nil {
		return nil, err
	}
	defer st.shutdown()
	sim, err := newSimulation(s.Name, cfg, st)
	if err != nil {
		return nil, err
	}
	sim.soleTenant = true
	defer sim.shutdown()
	return sim.run()
}

// Outcome categories tallied by the simulator. Categories starting with
// "rejected/" are service-side refusals; "client-rejected" never reached
// the service.
const (
	CatAccepted          = "accepted"
	CatClientRejected    = "client-rejected"
	CatDropout           = "dropout"
	CatRejectedSig       = "rejected/bad-signature"
	CatRejectedDup       = "rejected/duplicate"
	CatRejectedReplay    = "rejected/replay"
	CatRejectedGarbage   = "rejected/garbage"
	CatRejectedWindow    = "rejected/out-of-window"
	CatStragglerAccepted = "straggler/accepted"
	CatStragglerRejected = "straggler/rejected"

	// Ticket-probe categories (Ticketed runs only).
	CatRejectedForgedMAC     = "rejected/forged-mac"
	CatRejectedTicketWindow  = "rejected/ticket-window"
	CatRejectedExpiredTicket = "rejected/expired-ticket"
	CatRejectedUnknownTenant = "rejected/unknown-tenant"
)

// Tally counts outcomes by category.
type Tally map[string]int

// ServiceRejections sums the service-side refusal categories, including
// rejected stragglers.
func (t Tally) ServiceRejections() int {
	n := 0
	for cat, c := range t {
		if strings.HasPrefix(cat, "rejected/") || cat == CatStragglerRejected {
			n += c
		}
	}
	return n
}

// RoundReport is one sealed round's outcome.
type RoundReport struct {
	Round uint64
	// Accepted is the pipeline's accepted count at seal time.
	Accepted int
	// Tally is the per-category outcome count observed for this round.
	Tally Tally
	// SumDigest is a 64-bit digest of the corrected sealed aggregate.
	SumDigest string
	// Exact reports whether the corrected sealed aggregate equals the
	// exact sum of the accepted honest contributions.
	Exact bool
	// DropoutsRecovered counts masks reconstructed from Shamir shares and
	// applied via CorrectDropout.
	DropoutsRecovered int
}

// Report is the outcome of one simulation run.
type Report struct {
	Scenario  string
	Config    Config
	Rounds    []RoundReport
	Totals    Tally
	Elapsed   time.Duration
	Transport TransportKind
	// Violations lists every invariant breach observed; an empty list
	// means the run passed.
	Violations []string
}

// Ok reports whether every invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// RoundsPerSec is the end-to-end round throughput.
func (r *Report) RoundsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(len(r.Rounds)) / r.Elapsed.Seconds()
}
