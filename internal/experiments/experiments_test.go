package experiments

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"glimmers/internal/testbed"
)

// smallFigure1 keeps the Figure 1 experiments fast in tests.
func smallFigure1() Figure1Config {
	cfg := DefaultFigure1()
	cfg.Users = 10
	cfg.WordsPerUser = 250
	cfg.HeldoutWords = 800
	return cfg
}

func TestE1RawSharingTradeoff(t *testing.T) {
	res, err := RunE1(smallFigure1())
	if err != nil {
		t.Fatal(err)
	}
	local, raw := res.Rows[0], res.Rows[1]
	if raw.Accuracy <= local.Accuracy {
		t.Errorf("raw sharing should beat local-only: %.3f vs %.3f", raw.Accuracy, local.Accuracy)
	}
	if raw.PrivacyLoss != 1.0 || local.PrivacyLoss != 0 {
		t.Errorf("privacy losses: %+v", res.Rows)
	}
	if !strings.Contains(res.Table(), "raw sharing") {
		t.Error("table missing scheme row")
	}
}

func TestE2FederatedKeepsUtilityButInverts(t *testing.T) {
	res, err := RunE2(smallFigure1())
	if err != nil {
		t.Fatal(err)
	}
	if !res.TrendLearned {
		t.Error("federated model failed to learn the trend")
	}
	if res.FederatedAccuracy < res.RawAccuracy-0.1 {
		t.Errorf("federated accuracy %.3f far below raw %.3f", res.FederatedAccuracy, res.RawAccuracy)
	}
	if res.MeanInversionRecall < 0.9 {
		t.Errorf("inversion recall %.3f: strawman models should invert nearly completely", res.MeanInversionRecall)
	}
}

func TestE3SecureAggregationExactAndOpaque(t *testing.T) {
	res, err := RunE3(smallFigure1())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row.AggregateExact {
			t.Errorf("%s: aggregate not exact", row.Scheme)
		}
		if row.ClearInversionRecall < 0.9 {
			t.Errorf("%s: clear inversion %.3f should be ~1", row.Scheme, row.ClearInversionRecall)
		}
		if row.BlindedInversionRecall > row.ClearInversionRecall/2 {
			t.Errorf("%s: blinded inversion %.3f not far below clear %.3f",
				row.Scheme, row.BlindedInversionRecall, row.ClearInversionRecall)
		}
	}
	if !res.DropoutRecovered {
		t.Error("dropout recovery failed")
	}
}

func TestE4PoisoningInvisibleUnderBlinding(t *testing.T) {
	res, err := RunE4(smallFigure1())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flipped {
		t.Error("poisoning failed to flip the suggestion")
	}
	if res.PoisonedAggregateWeight < 1 {
		t.Errorf("poisoned weight %.3f should dominate", res.PoisonedAggregateWeight)
	}
	if !res.DetectableUnblinded {
		t.Error("raw 538 should be detectable without blinding")
	}
	if res.DetectableBlinded {
		t.Error("blinded 538 should NOT be detectable — that is the paper's point")
	}
}

// TestE4AttackerCountEdges: with no attackers, or nobody but attackers, the
// empty group's flagged rate is 0, and the aggregate-weight field keeps
// meaning the target bigram even when another word stays on top.
func TestE4AttackerCountEdges(t *testing.T) {
	for _, attackers := range []int{0, smallFigure1().Users} {
		cfg := smallFigure1()
		cfg.Attackers = attackers
		res, err := RunE4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if h, a := res.BlindedFlaggedHonest, res.BlindedFlaggedAttacker; math.IsNaN(h) || math.IsNaN(a) {
			t.Errorf("attackers=%d: flagged rates %v (honest), %v (attacker)", attackers, h, a)
		}
		if attackers == 0 && (res.Flipped || res.PoisonedTop != res.CleanTop ||
			res.PoisonedAggregateWeight >= res.PoisonedTopWeight) {
			t.Errorf("attackers=0: %+v", res)
		}
	}
	cfg := smallFigure1()
	cfg.Attackers = cfg.Users + 1
	if _, err := RunE4(cfg); err == nil {
		t.Error("more attackers than users accepted")
	}
}

func TestE5GlimmerBlocksAttack(t *testing.T) {
	cfg := smallFigure1()
	cfg.Users = 8
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where the hosting node's state directory goes
	res, rep, err := runE5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AttackBlockedAtClient {
		t.Error("538 was not blocked at the client")
	}
	if res.Accepted != cfg.Users-1 || res.Rejected != 1 {
		t.Errorf("accepted/rejected = %d/%d", res.Accepted, res.Rejected)
	}
	if !res.SuggestionIntact {
		t.Error("suggestion flipped despite the Glimmer")
	}
	if !res.AggregateExact {
		t.Error("honest aggregate not exact after correcting the refused mask")
	}
	// The round ran on the shipped node: routed, admitted, journaled.
	if rep.RoutingRejected != 0 || rep.Tenants[0].ManagerRejected+rep.Tenants[0].PipelineRejected != 0 {
		t.Errorf("node refused endorsed contributions: routing %d, tenant %+v", rep.RoutingRejected, rep.Tenants[0])
	}
	if rep.WAL.Records == 0 || !rep.Snapshotted {
		t.Errorf("round left no durable trace: WAL %+v, snapshotted %v", rep.WAL, rep.Snapshotted)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("state directory outlived the run: %v", left)
	}
}

func TestE6DecompositionCosts(t *testing.T) {
	cfg := DefaultE6()
	cfg.Contributions = 8
	cfg.Dim = 16
	cfg.TransitionCost = 200 * time.Microsecond
	res, err := RunE6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, decomposed := res.Rows[0], res.Rows[1]
	if single.ECallsPerContribution != 1 {
		t.Errorf("single ecalls/op = %v, want 1", single.ECallsPerContribution)
	}
	if decomposed.ECallsPerContribution != 3 {
		t.Errorf("decomposed ecalls/op = %v, want 3", decomposed.ECallsPerContribution)
	}
	if decomposed.MeanLatencyCosted <= single.MeanLatencyCosted {
		t.Errorf("decomposed costed latency %v should exceed single %v",
			decomposed.MeanLatencyCosted, single.MeanLatencyCosted)
	}
}

func TestE7ValidationLadder(t *testing.T) {
	cfg := DefaultE7()
	cfg.Users = 5
	cfg.WordsPerUser = 300
	res, err := RunE7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	none, rng, corr := res.Rows[0], res.Rows[1], res.Rows[2]
	if none.ForgedAccepted != 1 {
		t.Errorf("no validation should accept all forgeries: %.2f", none.ForgedAccepted)
	}
	if rng.ForgedAccepted != 1 {
		t.Errorf("range check alone should accept in-range forgeries: %.2f", rng.ForgedAccepted)
	}
	if rng.MaxSkewWeight > 1.01 {
		t.Errorf("range check should cap skew at 1: %.2f", rng.MaxSkewWeight)
	}
	if corr.ForgedAccepted != 0 {
		t.Errorf("corroboration should refuse forgeries: %.2f", corr.ForgedAccepted)
	}
	if corr.HonestAccepted < 0.99 {
		t.Errorf("corroboration should accept honest users: %.2f", corr.HonestAccepted)
	}
}

func TestE8BotDetectionThroughGlimmer(t *testing.T) {
	cfg := DefaultE8()
	cfg.Samples = 20
	cfg.Sophistications = []float64{0, 1.0}
	res, err := RunE8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BitsPerVerdict != 1 {
		t.Errorf("bits per verdict = %d, want 1", res.BitsPerVerdict)
	}
	naive := res.Rows[0]
	if naive.TPR < 0.9 || naive.FPR > 0.1 {
		t.Errorf("naive bots: TPR %.2f FPR %.2f", naive.TPR, naive.FPR)
	}
	sophisticated := res.Rows[1]
	if sophisticated.FPR < naive.FPR {
		t.Errorf("sophisticated bots should evade more: %.2f < %.2f", sophisticated.FPR, naive.FPR)
	}
	if res.VerdictsAudited == 0 || !res.ConfidentialDelivery {
		t.Error("audit trail incomplete")
	}
}

// TestE9RemoteGlimmer also holds the run to leaving nothing behind: the
// hosting node's listener, accept loop and connection handlers are gone
// when RunE9 returns.
func TestE9RemoteGlimmer(t *testing.T) {
	cfg := DefaultE9()
	cfg.Contributions = 31
	baseline := testbed.TakeCensus()
	res, err := RunE9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.Settle(); err != nil {
		t.Errorf("after RunE9: %v", err)
	}
	if !res.RemoteWorks {
		t.Error("remote contribution failed verification")
	}
	local, remote := res.Rows[0], res.Rows[1]
	// Medians of 31 samples each: a mean of a handful inverts whenever the
	// machine is busy for the length of one block.
	if remote.MedianLatency <= local.MedianLatency {
		t.Errorf("remote median %v should cost more than local median %v", remote.MedianLatency, local.MedianLatency)
	}
}

func TestE10ConsortiumComparison(t *testing.T) {
	cfg := DefaultE10()
	cfg.Contributions = 2
	cfg.Sizes = []int{3, 5}
	res, err := RunE10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Disclosures != 3 || res.Rows[1].Disclosures != 5 {
		t.Errorf("consortium disclosures: %+v", res.Rows[:2])
	}
	glimRow := res.Rows[2]
	if glimRow.Disclosures != 0 {
		t.Errorf("glimmer disclosures = %d, want 0", glimRow.Disclosures)
	}
	if res.Rows[1].Messages <= res.Rows[0].Messages {
		t.Error("larger consortium should exchange more messages")
	}
}

func TestE11MapsValidation(t *testing.T) {
	cfg := DefaultE11()
	cfg.Samples = 10
	res, err := RunE11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	genuine, forgedLoc, stolen := res.Rows[0], res.Rows[1], res.Rows[2]
	if genuine.AcceptRate < 0.9 {
		t.Errorf("genuine accept rate %.2f", genuine.AcceptRate)
	}
	if forgedLoc.AcceptRate > 0 {
		t.Errorf("forged location accept rate %.2f", forgedLoc.AcceptRate)
	}
	if stolen.AcceptRate > 0 {
		t.Errorf("stolen photo accept rate %.2f", stolen.AcceptRate)
	}
}

func TestE12VerifierCertificates(t *testing.T) {
	res, err := RunE12()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Verified {
			t.Errorf("stdlib predicate %s failed verification", row.Predicate)
		}
		if row.ActualSteps > row.CostBound {
			t.Errorf("%s: steps %d exceed bound %d", row.Predicate, row.ActualSteps, row.CostBound)
		}
		if row.Declass > 1 {
			t.Errorf("%s: %d declass sites", row.Predicate, row.Declass)
		}
	}
	if res.LeakyRejected != res.LeakyTotal {
		t.Errorf("leaky predicates rejected %d/%d", res.LeakyRejected, res.LeakyTotal)
	}
}

// indexTables runs every Index entry once, at its default configuration,
// for the tests that read the rendered tables.
var indexTables = sync.OnceValue(func() map[string]rendered {
	tables := make(map[string]rendered, len(Index))
	for _, e := range Index {
		res, err := e.Run()
		if err != nil {
			tables[e.ID] = rendered{err: err}
			continue
		}
		tables[e.ID] = rendered{table: res.Table()}
	}
	return tables
})

type rendered struct {
	table string
	err   error
}

func TestTablesRender(t *testing.T) {
	// Every result renders a table titled with its experiment id.
	for _, e := range Index {
		r := indexTables()[e.ID]
		if title := "== " + strings.ToUpper(e.ID); r.err != nil || !strings.HasPrefix(r.table, title) {
			t.Errorf("%s table starts %.20q, want %q: %v", e.ID, r.table, title, r.err)
		}
	}
}
