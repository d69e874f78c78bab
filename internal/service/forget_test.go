package service

import (
	"crypto/sha256"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
)

// Forgetting a round releases its dedup state, and nothing of that state may
// outlive the round: not its digests in a round that re-creates it, not in the
// next round created after it, and not under a caller still holding the
// forgotten pipeline while other rounds ingest.

// TestForgetReacceptsDigest: a digest accepted in round r is refused as a
// duplicate while r lives, accepted again once r is forgotten and re-created,
// and accepted again in the round created after r is forgotten once more,
// which starts at Count 0 with a zero Sum.
func TestForgetReacceptsDigest(t *testing.T) {
	const (
		dim   = 3
		round = uint64(5)
		next  = uint64(6)
	)
	cfg := TenantConfig{Name: "f.example", Dim: dim, Workers: 1}
	reg, m := testTenant(t, cfg)
	raw := tenantContribution(t, nil, cfg.Name, round, dim, 1)
	if err := reg.Ingest(raw); err != nil {
		t.Fatal(err)
	}
	if err := reg.Ingest(raw); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("resubmission into the live round: %v, want ErrDuplicate", err)
	}
	m.Forget(round)
	if err := reg.Ingest(raw); err != nil {
		t.Fatalf("resubmission into the re-created round: %v", err)
	}
	p, _ := m.Lookup(round)
	if got := p.Count(); got != 1 {
		t.Fatalf("re-created round counts %d, want 1", got)
	}
	digest := sha256.Sum256(raw)

	m.Forget(round)
	if err := reg.Apply(Record{Kind: RoundCreated, Tenant: cfg.Name, Round: next}); err != nil {
		t.Fatal(err)
	}
	q, _ := m.Lookup(next)
	if got, sum := q.Count(), q.Sum(); got != 0 || !reflect.DeepEqual(sum, fixed.NewVector(dim)) {
		t.Fatalf("round created after a forget starts at count %d, sum %v; want 0 and zero", got, sum)
	}
	// The same digest, as a replayed watermark would carry it: new to this
	// round, so counted once, and refused as a duplicate the second time.
	delta := fixed.Vector{1, 2, 3}
	for range 2 {
		rec := Record{Kind: BatchAccepted, Tenant: cfg.Name, Round: next, Digests: [][32]byte{digest}, Lanes: delta}
		if err := reg.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Count(); got != 1 {
		t.Fatalf("round %d counts %d after its one digest, want 1", next, got)
	}
	if got := q.Sum(); !reflect.DeepEqual(got, fixed.Vector{2, 4, 6}) {
		t.Fatalf("round %d sums %v, want both replayed deltas", next, got)
	}
}

// TestForgetRacesIngest forgets and evicts rounds of one tenant while frames
// stream into another tenant's rounds and readers hold pipelines of both,
// reading Count, Sum, Mean and their exported digests. Every digest a reader
// sees belongs to the round it read, and every round that was never forgotten
// seals at exactly the sum and count its frames were acked for. Run under
// -race in CI.
func TestForgetRacesIngest(t *testing.T) {
	const (
		dim       = 3
		kept      = 3 // rounds 1..kept of the kept tenant
		hammers   = 2
		frames    = 24
		frameSize = 12 // more than one chunk at Workers: 2
		churners  = 2
		churns    = 40
	)
	keep := TenantConfig{Name: "keep.example", Dim: dim, Workers: 2}
	churn := TenantConfig{Name: "churn.example", Dim: dim, Workers: 2, MaxRounds: 3, EvictAtCap: true}
	reg := NewRegistry(0)
	for _, cfg := range []TenantConfig{keep, churn} {
		if _, err := reg.AddTenant(cfg); err != nil {
			t.Fatal(err)
		}
	}
	keepTn, _ := reg.Tenant(keep.Name)
	churnTn, _ := reg.Tenant(churn.Name)

	// owner maps every digest ever submitted to the round that carried it.
	var owner sync.Map
	var item atomic.Int64
	contribution := func(name string, round uint64) []byte {
		raw := tenantContribution(t, nil, name, round, dim, int(item.Add(1)))
		owner.Store(sha256.Sum256(raw), round)
		return raw
	}

	var (
		heldMu sync.Mutex
		held   []*Pipeline
	)
	hold := func(p *Pipeline) {
		heldMu.Lock()
		held = append(held, p)
		heldMu.Unlock()
	}
	for r := uint64(1); r <= kept; r++ {
		hold(keepTn.Manager().Round(r))
	}

	var (
		mu       sync.Mutex
		want     = make(map[uint64]fixed.Vector)
		accepted = make(map[uint64]int)
	)
	for r := uint64(1); r <= kept; r++ {
		want[r] = fixed.NewVector(dim)
	}

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				heldMu.Lock()
				ps := append([]*Pipeline(nil), held...)
				heldMu.Unlock()
				for _, p := range ps {
					p.Count()
					p.Sum()
					_, _ = p.Mean()
					for _, d := range p.exportRound().Digests {
						if r, ok := owner.Load(d); !ok || r.(uint64) != p.round {
							t.Errorf("round %d exports a digest of round %v", p.round, r)
							return
						}
					}
				}
				reg.ExportState()
			}
		}()
	}

	for h := range hammers {
		writers.Add(1)
		go func() {
			defer writers.Done()
			var last []byte
			for f := range frames {
				round := uint64(1 + (h+f)%kept)
				frame := make([][]byte, frameSize)
				for i := range frame {
					frame[i] = contribution(keep.Name, round)
				}
				if last != nil {
					frame[0] = last // a duplicate of the previous frame, maybe of another round
				}
				last = frame[frameSize-1]
				_, errs := reg.IngestBatch(frame)
				for i, err := range errs {
					switch {
					case err == nil:
						sc, derr := glimmer.DecodeSignedContribution(frame[i])
						if derr != nil {
							t.Error(derr)
							return
						}
						mu.Lock()
						want[sc.Round].AddInPlace(sc.Blinded)
						accepted[sc.Round]++
						mu.Unlock()
					case errors.Is(err, ErrDuplicate):
					default:
						t.Errorf("hammer %d: unexpected error %v", h, err)
						return
					}
				}
			}
		}()
	}

	var nextChurn atomic.Uint64
	nextChurn.Store(1000)
	for c := range churners {
		writers.Add(1)
		go func() {
			defer writers.Done()
			m := churnTn.Manager()
			for i := range churns {
				round := nextChurn.Add(1)
				frame := [][]byte{contribution(churn.Name, round), contribution(churn.Name, round)}
				_, errs := reg.IngestBatch(frame)
				for _, err := range errs {
					switch {
					case err == nil,
						// Evicted between its admission and its frame.
						errors.Is(err, ErrRoundSealed), errors.Is(err, ErrRoundClosed):
					default:
						t.Errorf("churner %d: unexpected error %v", c, err)
						return
					}
				}
				if p, ok := m.Lookup(round); ok {
					hold(p)
				}
				if i%2 == 0 {
					m.Forget(round)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	for r := uint64(1); r <= kept; r++ {
		p := keepTn.Manager().Close(r)
		if got := p.Count(); got != accepted[r] {
			t.Errorf("round %d seals %d contributions, its frames were acked for %d", r, got, accepted[r])
		}
		if got := p.Sum(); !reflect.DeepEqual(got, want[r]) {
			t.Errorf("round %d seals sum %v, want %v", r, got, want[r])
		}
	}
}

// TestForgetEmptiesHeldPipeline: a caller still holding a round's pipeline
// after Forget, or after the round was evicted, reads an empty closed round
// — Count 0, a zero Sum, no Mean, its Rejected count kept — because the
// round's dedup sets have gone on to later rounds.
func TestForgetEmptiesHeldPipeline(t *testing.T) {
	const dim = 3
	cfg := TenantConfig{Name: "f.example", Dim: dim, Workers: 1, MaxRounds: 1, EvictAtCap: true}
	reg, m := testTenant(t, cfg)
	held := func(round uint64) *Pipeline {
		t.Helper()
		raws := [][]byte{tenantContribution(t, nil, cfg.Name, round, dim, 1), tenantContribution(t, nil, cfg.Name, round, dim, 2)}
		raws = append(raws, raws[0]) // refused as a duplicate, on the round's own count
		if accepted, _ := reg.IngestBatch(raws); accepted != 2 {
			t.Fatalf("round %d accepted %d of its frame, want 2", round, accepted)
		}
		p, _ := m.Lookup(round)
		return p
	}
	check := func(how string, p *Pipeline) {
		t.Helper()
		if got := p.Count(); got != 0 {
			t.Errorf("%s round counts %d, want 0", how, got)
		}
		if got := p.Sum(); !reflect.DeepEqual(got, fixed.NewVector(dim)) {
			t.Errorf("%s round sums %v, want zero", how, got)
		}
		if _, err := p.Mean(); err == nil {
			t.Errorf("%s round has a mean", how)
		}
		if got := p.Rejected(); got != 1 {
			t.Errorf("%s round rejected %d, want its 1 kept", how, got)
		}
		if got := p.exportRound(); len(got.Digests) != 0 || got.Phase != RoundPhaseClosed {
			t.Errorf("%s round exports %+v, want closed and no digests", how, got)
		}
		if err := add(p, tenantContribution(t, nil, cfg.Name, p.round, dim, 3))[0]; !errors.Is(err, ErrRoundClosed) {
			t.Errorf("%s round answers ingest with %v, want ErrRoundClosed", how, err)
		}
	}

	forgotten := held(1)
	m.Forget(1)
	check("forgotten", forgotten)

	evicted := held(2)
	held(3) // at MaxRounds 1, round 3 evicts round 2
	if _, ok := m.Lookup(2); ok {
		t.Fatal("round 2 was not evicted")
	}
	check("evicted", evicted)
}
