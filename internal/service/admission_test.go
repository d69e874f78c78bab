package service

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
)

// Round admission, eviction and the budget's occupancy against a plain
// sequential model, then the same invariants under concurrency with the
// journal replayed. Nothing here reaches into unexported state: the tests
// drive Registry.Ingest and the operator verbs and read Rounds(), Count()
// and Budget().Live() back.

// admissionTenants are three tenants with distinct quotas: one that evicts
// at its own cap, one that refuses at it behind a window, one small and
// windowed that evicts.
var admissionTenants = []TenantConfig{
	{Name: "a.example", Dim: 1, MaxRounds: 3, EvictAtCap: true},
	{Name: "b.example", Dim: 1, MaxRounds: 4, RoundWindow: 4},
	{Name: "c.example", Dim: 1, MaxRounds: 2, EvictAtCap: true, RoundWindow: 2},
}

func admissionRegistry(t testing.TB, budget int, j Journal) *Registry {
	t.Helper()
	r := NewRegistry(budget)
	for _, cfg := range admissionTenants {
		if _, err := r.AddTenant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if j != nil {
		r.SetJournal(j)
	}
	return r
}

// tapeJournal records every journal call in arrival order, copying what the
// caller may reuse, so a test can play the tape back through
// Registry.ReplayJournal. onForgotten, when set, runs inside the
// RoundForgotten hook before the record lands on the tape.
type tapeJournal struct {
	mu          sync.Mutex
	ops         []tapeOp
	onForgotten func()
}

type tapeOp struct {
	kind   string // the Journal method name
	tenant string
	round  uint64
	play   func(Journal)
}

func (j *tapeJournal) add(kind, tenant string, round uint64, play func(Journal)) {
	j.mu.Lock()
	j.ops = append(j.ops, tapeOp{kind, tenant, round, play})
	j.mu.Unlock()
}

func (j *tapeJournal) RoundCreated(t string, r uint64) {
	j.add("RoundCreated", t, r, func(x Journal) { x.RoundCreated(t, r) })
}
func (j *tapeJournal) RoundSealed(t string, r uint64) {
	j.add("RoundSealed", t, r, func(x Journal) { x.RoundSealed(t, r) })
}
func (j *tapeJournal) RoundClosed(t string, r uint64) {
	j.add("RoundClosed", t, r, func(x Journal) { x.RoundClosed(t, r) })
}
func (j *tapeJournal) RoundForgotten(t string, r uint64) {
	if j.onForgotten != nil {
		j.onForgotten()
	}
	j.add("RoundForgotten", t, r, func(x Journal) { x.RoundForgotten(t, r) })
}
func (j *tapeJournal) BatchAccepted(t string, r uint64, digests [][32]byte, delta fixed.Vector) {
	ds, dv := append([][32]byte(nil), digests...), delta.Clone()
	j.add("BatchAccepted", t, r, func(x Journal) { x.BatchAccepted(t, r, ds, dv) })
}
func (j *tapeJournal) DropoutCorrected(t string, r uint64, mask fixed.Vector) {
	mv := mask.Clone()
	j.add("DropoutCorrected", t, r, func(x Journal) { x.DropoutCorrected(t, r, mv) })
}
func (j *tapeJournal) Rejected(t string, r uint64, level RejectLevel, n int) {
	j.add("Rejected", t, r, func(x Journal) { x.Rejected(t, r, level, n) })
}
func (j *tapeJournal) TicketGranted(t string, tk TicketState) {
	j.add("TicketGranted", t, 0, func(x Journal) { x.TicketGranted(t, tk) })
}
func (j *tapeJournal) TicketEvicted(t string, id uint64) {
	j.add("TicketEvicted", t, 0, func(x Journal) { x.TicketEvicted(t, id) })
}

// replayInto plays the tape into r, a fresh registry of the same tenants,
// and returns its exported state.
func (j *tapeJournal) replayInto(t testing.TB, r *Registry) RegistryState {
	t.Helper()
	rj := r.ReplayJournal(func(err error) { t.Errorf("replay: %v", err) })
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, op := range j.ops {
		op.play(rj)
	}
	return r.ExportState()
}

// modelRound and modelTenant are the sequential model: what a tenant holds
// is a map from round number to accepted count and whether it still ingests.
type modelRound struct {
	count int
	open  bool
}

type modelTenant struct {
	cfg    TenantConfig
	rounds map[uint64]*modelRound
}

type admissionModel struct {
	max     int
	tenants []*modelTenant // attachment order
}

func (m *admissionModel) live() int {
	n := 0
	for _, t := range m.tenants {
		n += len(t.rounds)
	}
	return n
}

// evictLeastFilled drops the tenant's least-filled open round, highest round
// number on ties.
func (t *modelTenant) evictLeastFilled() bool {
	var victim uint64
	found := false
	for r, st := range t.rounds {
		if !st.open {
			continue
		}
		if !found || st.count < t.rounds[victim].count ||
			(st.count == t.rounds[victim].count && r > victim) {
			victim, found = r, true
		}
	}
	if found {
		delete(t.rounds, victim)
	}
	return found
}

// evictShared takes one round from the heaviest tenant that has an open one,
// attachment order on ties.
func (m *admissionModel) evictShared() bool {
	byLoad := slices.Clone(m.tenants)
	slices.SortStableFunc(byLoad, func(x, y *modelTenant) int { return len(y.rounds) - len(x.rounds) })
	for _, t := range byLoad {
		if t.evictLeastFilled() {
			return true
		}
	}
	return false
}

func (t *modelTenant) windowRefuses(round uint64) bool {
	if t.cfg.RoundWindow == 0 {
		return false
	}
	anchor, anchored := uint64(0), false
	for r, st := range t.rounds {
		if st.count >= 2 && (!anchored || r > anchor) {
			anchor, anchored = r, true
		}
	}
	if !anchored {
		return false
	}
	if round > anchor {
		return round-anchor > t.cfg.RoundWindow
	}
	return anchor-round > t.cfg.RoundWindow
}

// ingest is one fresh, well-formed contribution for (t, round).
func (m *admissionModel) ingest(t *modelTenant, round uint64) error {
	if st, ok := t.rounds[round]; ok {
		if !st.open {
			return ErrRoundSealed
		}
		st.count++
		return nil
	}
	if t.windowRefuses(round) {
		return ErrRoundOutOfWindow
	}
	for m.live() >= m.max {
		if !m.evictShared() {
			return ErrBudgetExhausted
		}
	}
	// The shared eviction may have taken this tenant's window anchor.
	if t.windowRefuses(round) {
		return ErrRoundOutOfWindow
	}
	for len(t.rounds) >= t.cfg.MaxRounds {
		if !t.cfg.EvictAtCap || !t.evictLeastFilled() {
			return ErrTooManyRounds
		}
	}
	t.rounds[round] = &modelRound{count: 1, open: true}
	return nil
}

func (t *modelTenant) sortedRounds() []uint64 {
	out := make([]uint64, 0, len(t.rounds))
	for r := range t.rounds {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}

// TestAdmissionMatchesModel drives ingest-driven admission and the operator
// verbs at random and holds the registry to the model after every step: the
// sentinel, which rounds each tenant still holds, what each has accepted, and
// the budget's occupancy.
func TestAdmissionMatchesModel(t *testing.T) {
	const (
		budget   = 6
		steps    = 2000
		roundMax = 12
	)
	hits := map[error]int{} // how often the model predicted each outcome
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := admissionRegistry(t, budget, nil)
		model := &admissionModel{max: budget}
		for _, cfg := range admissionTenants {
			model.tenants = append(model.tenants, &modelTenant{cfg: cfg, rounds: map[uint64]*modelRound{}})
		}
		for step := 0; step < steps; step++ {
			mt := model.tenants[rng.Intn(len(model.tenants))]
			tn, _ := reg.Tenant(mt.cfg.Name)
			mgr := tn.Manager()
			round := uint64(1 + rng.Intn(roundMax))
			// Most operator verbs and the anchor-establishing extras aim at
			// a round the tenant holds, when it holds one.
			if live := mt.sortedRounds(); len(live) > 0 && rng.Intn(5) > 0 {
				round = live[rng.Intn(len(live))]
			}
			var op string
			switch k := rng.Intn(20); {
			case k < 10:
				op = "ingest"
				round = uint64(1 + rng.Intn(roundMax))
			case k < 13:
				op = "ingest-extra"
			case k < 15:
				op = "round"
				round = uint64(1 + rng.Intn(roundMax))
			case k < 17:
				op = "seal"
			default:
				op = "forget"
			}
			at := fmt.Sprintf("seed %d step %d: %s %s/%d", seed, step, op, mt.cfg.Name, round)
			switch op {
			case "ingest", "ingest-extra":
				want := model.ingest(mt, round)
				hits[want]++
				got := reg.Ingest(tenantContribution(t, nil, mt.cfg.Name, round, 1, int(seed)*steps+step))
				if !errors.Is(got, want) || (want == nil && got != nil) {
					t.Fatalf("%s: err = %v, model says %v", at, got, want)
				}
			case "round":
				if _, ok := mt.rounds[round]; !ok {
					mt.rounds[round] = &modelRound{open: true}
				}
				mgr.Round(round)
			case "seal":
				if _, ok := mt.rounds[round]; !ok {
					mt.rounds[round] = &modelRound{}
				}
				mt.rounds[round].open = false
				if err := mgr.Seal(round); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
			case "forget":
				delete(mt.rounds, round)
				mgr.Forget(round)
			}
			for _, mt := range model.tenants {
				tn, _ := reg.Tenant(mt.cfg.Name)
				want := mt.sortedRounds()
				if got := tn.Manager().Rounds(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %s holds %v, model says %v", at, mt.cfg.Name, got, want)
				}
				for _, r := range want {
					if p, _ := tn.Manager().Lookup(r); p.Count() != mt.rounds[r].count {
						t.Fatalf("%s: %s/%d count = %d, model says %d", at, mt.cfg.Name, r, p.Count(), mt.rounds[r].count)
					}
				}
			}
			if got, want := reg.Budget().Live(), model.live(); got != want {
				t.Fatalf("%s: budget live = %d, model says %d", at, got, want)
			}
		}
	}
	for _, outcome := range []error{nil, ErrTooManyRounds, ErrBudgetExhausted, ErrRoundOutOfWindow, ErrRoundSealed} {
		if hits[outcome] == 0 {
			t.Errorf("no step was predicted to end in %v: the walk does not reach it", outcome)
		}
	}
}

// TestAdmissionConcurrent admits fresh rounds from 8 goroutines across the
// three tenants while some are forgotten again. At quiescence the budget's
// occupancy is what the tenants hold and inside the cap, every round that
// left a manager refuses ingest as closed, and the journal replays to the
// live registry's exact state. Run under -race in CI.
func TestAdmissionConcurrent(t *testing.T) {
	const (
		budget  = 8
		workers = 8
		perLane = 120
	)
	tape := new(tapeJournal)
	reg := admissionRegistry(t, budget, tape)
	type admitted struct {
		mgr   *RoundManager
		round uint64
		p     *Pipeline
	}
	var (
		nextRound atomic.Uint64
		nextItem  atomic.Int64
		wg        sync.WaitGroup
		seen      = make([][]admitted, workers)
	)
	ingest := func(name string, round uint64) error {
		err := reg.Ingest(tenantContribution(t, nil, name, round, 1, int(nextItem.Add(1))))
		switch {
		case err == nil,
			errors.Is(err, ErrTooManyRounds), errors.Is(err, ErrBudgetExhausted),
			errors.Is(err, ErrRoundOutOfWindow),
			// Evicted between its admission and its first contribution.
			errors.Is(err, ErrRoundSealed), errors.Is(err, ErrRoundClosed):
			return err
		}
		t.Errorf("%s/%d: unexpected error %v", name, round, err)
		return err
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perLane; i++ {
				name := admissionTenants[rng.Intn(len(admissionTenants))].Name
				tn, _ := reg.Tenant(name)
				round := nextRound.Add(1)
				if ingest(name, round) != nil {
					continue
				}
				if p, ok := tn.Manager().Lookup(round); ok {
					seen[w] = append(seen[w], admitted{tn.Manager(), round, p})
				}
				switch rng.Intn(4) {
				case 0: // establish it, so it can anchor its tenant's window
					ingest(name, round)
				case 1:
					if n := len(seen[w]); n > 0 {
						old := seen[w][rng.Intn(n)]
						old.mgr.Forget(old.round)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	held := 0
	for _, tn := range reg.Tenants() {
		held += len(tn.Manager().Rounds())
	}
	if live := reg.Budget().Live(); live != held || live > budget {
		t.Fatalf("budget live = %d, tenants hold %d, cap %d", live, held, budget)
	}
	gone := 0
	for _, lane := range seen {
		for _, a := range lane {
			if p, ok := a.mgr.Lookup(a.round); ok && p == a.p {
				continue
			}
			gone++
			raw := tenantContribution(t, nil, a.mgr.cfg.ServiceName, a.round, 1, int(nextItem.Add(1)))
			if err := a.p.Add(raw); !errors.Is(err, ErrRoundClosed) {
				t.Fatalf("%s/%d left its manager but answers %v, want ErrRoundClosed", a.mgr.cfg.ServiceName, a.round, err)
			}
		}
	}
	if gone == 0 {
		t.Fatal("no round was evicted or forgotten: the test exercised nothing")
	}
	// The probes above were refused by detached pipelines, which still
	// journal; replay drops records for rounds the registry no longer holds.
	if got, want := tape.replayInto(t, admissionRegistry(t, budget, nil)), reg.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed journal diverges from the live registry:\n got %+v\nwant %+v", got, want)
	}
}

// TestDropoutRacesSeal races CorrectDropout, frames that fan out, and Seal
// on one round: the sealed aggregate is every accepted vector plus every
// applied mask, and the journal replays to the same state. Run under -race
// in CI.
func TestDropoutRacesSeal(t *testing.T) {
	const (
		dim       = 4
		round     = uint64(1)
		hammers   = 2
		frames    = 30
		frameSize = 20 // more than one chunk at Workers: 2
		masks     = 60
	)
	cfg := TenantConfig{Name: "a.example", Dim: dim, Workers: 2, Shards: 2}
	newRegistry := func() *Registry {
		r := NewRegistry(0)
		if _, err := r.AddTenant(cfg); err != nil {
			t.Fatal(err)
		}
		return r
	}
	tape := new(tapeJournal)
	reg := newRegistry()
	reg.SetJournal(tape)
	tn, _ := reg.Tenant(cfg.Name)
	p := tn.Manager().Round(round)

	batches := make([][][]byte, hammers*frames)
	for b := range batches {
		batches[b] = make([][]byte, frameSize)
		for i := range batches[b] {
			batches[b][i] = tenantContribution(t, nil, cfg.Name, round, dim, b*frameSize+i)
		}
	}
	mask := fixed.Vector{3, 5, 7, 11}

	var (
		mu       sync.Mutex
		want     = fixed.NewVector(dim)
		accepted int
		warm     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if h == 0 && f == frames/3 {
					close(warm)
				}
				batch := batches[h*frames+f]
				for i, err := range p.AddBatch(batch) {
					switch {
					case err == nil:
						sc, derr := glimmer.DecodeSignedContribution(batch[i])
						if derr != nil {
							t.Error(derr)
							return
						}
						mu.Lock()
						want.AddInPlace(sc.Blinded)
						accepted++
						mu.Unlock()
					case errors.Is(err, ErrRoundSealed):
					default:
						t.Errorf("hammer %d: unexpected error %v", h, err)
					}
				}
			}
		}(h)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < masks; i++ {
			// Open or sealed, never closed: every correction applies.
			if err := p.CorrectDropout(mask); err != nil {
				t.Errorf("CorrectDropout: %v", err)
				return
			}
			mu.Lock()
			want.AddInPlace(mask)
			mu.Unlock()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-warm
		if err := p.Seal(); err != nil {
			t.Errorf("Seal: %v", err)
		}
	}()
	wg.Wait()

	if got := p.Count(); got != accepted {
		t.Fatalf("sealed count = %d, AddBatch reported %d accepted", got, accepted)
	}
	if got := p.Sum(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sealed sum = %v, want accepted + masks = %v", got, want)
	}
	if got, want := tape.replayInto(t, newRegistry()), reg.ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed journal diverges from the live registry:\n got %+v\nwant %+v", got, want)
	}
}

// TestForgetJournalsBeforeRecreate: Forget's RoundForgotten record must land
// before the RoundCreated of a contribution that re-creates the round, or
// replay — created, then forgotten — drops the new round and the contribution
// acked to it. The hook holds Forget inside its journal call while a second
// goroutine ingests for the same round: journaled under the manager's lock,
// that ingest waits its turn; journaled after the unlock (as it once was), it
// gets in first.
func TestForgetJournalsBeforeRecreate(t *testing.T) {
	const round = uint64(7)
	name := admissionTenants[0].Name
	tape := new(tapeJournal)
	reg := admissionRegistry(t, 0, tape)
	if err := reg.Ingest(tenantContribution(t, nil, name, round, 1, 1)); err != nil {
		t.Fatal(err)
	}
	inHook, ingested := make(chan struct{}), make(chan error, 1)
	go func() {
		<-inHook
		ingested <- reg.Ingest(tenantContribution(t, nil, name, round, 1, 2))
	}()
	tape.onForgotten = func() {
		close(inHook)
		// Linger until the ingest has got through, or long enough that it
		// would have, had nothing held it back.
		select {
		case err := <-ingested:
			ingested <- err
		case <-time.After(100 * time.Millisecond):
		}
	}
	tn, _ := reg.Tenant(name)
	tn.Manager().Forget(round)
	if err := <-ingested; err != nil {
		t.Fatalf("re-creating ingest: %v", err)
	}

	// Only these two kinds: the forgotten pipeline's own Close journals its
	// RoundSealed and RoundClosed after Forget has let go of the lock, and
	// where they fall is not what this test pins.
	var kinds []string
	for _, op := range tape.ops {
		if op.tenant == name && op.round == round && (op.kind == "RoundCreated" || op.kind == "RoundForgotten") {
			kinds = append(kinds, op.kind)
		}
	}
	if want := []string{"RoundCreated", "RoundForgotten", "RoundCreated"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("journal orders the round's lifecycle %v, want %v", kinds, want)
	}
	got := tape.replayInto(t, admissionRegistry(t, 0, nil))
	if rounds := got.Tenants[0].Rounds; len(rounds) != 1 || rounds[0].Round != round || rounds[0].Count != 1 {
		t.Fatalf("replay holds %+v, want round %d with the one re-created contribution", rounds, round)
	}
}
