package service

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

// TestEvictAtCapRaceKeepsAcceptedContributions is the -race regression for
// the eviction path: while one goroutine hammers a victim round with
// frames and another seals it, a third keeps the manager at its round
// cap with fresh verified rounds so EvictAtCap evictions fire throughout.
// The property under test: a contribution whose frame slot returned nil
// is never lost — it is in the round's (eventually merged) aggregate and
// count, even if the round was evicted and closed mid-batch.
func TestEvictAtCapRaceKeepsAcceptedContributions(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	const (
		dim         = 4
		victimRound = uint64(1)
		hammers     = 3
		batches     = 40
		batchSize   = 4
	)
	reg, mgr := testTenant(t, TenantConfig{
		Name:       "svc",
		Verify:     key.Public(),
		Dim:        dim,
		Workers:    2,
		Shards:     2,
		MaxRounds:  4,
		EvictAtCap: true,
		Vetted:     []tee.Measurement{{1, 2, 3}},
	})
	victim := mgr.Round(victimRound)

	var (
		mu            sync.Mutex
		acceptedSum   = fixed.NewVector(dim)
		acceptedCount = 0
		start         = make(chan struct{})
		stopSpray     = make(chan struct{})
		sprayWarm     = make(chan struct{})
		sprayDone     = make(chan struct{})
		wg            sync.WaitGroup
	)

	// Sprayer: verified contributions for ever-fresh rounds, keeping the
	// manager at the cap so admissions evict open rounds (possibly the
	// victim) the whole time. It runs until the hammers finish.
	go func() {
		defer close(sprayDone)
		rng := rand.New(rand.NewSource(7))
		<-start
		for round := uint64(100); ; round++ {
			select {
			case <-stopSpray:
				return
			default:
			}
			raw := signedVector(t, key, "svc", round, randomVector(rng, dim))
			if err := reg.Ingest(raw); err != nil &&
				!errors.Is(err, ErrTooManyRounds) && !errors.Is(err, ErrRoundOutOfWindow) {
				t.Errorf("spray round %d: unexpected error %v", round, err)
				return
			}
			if round == 120 {
				close(sprayWarm)
			}
		}
	}()

	// Hammers: batches into the victim round. Accepted slots are tallied;
	// lifecycle refusals (the victim got sealed or evicted+closed) are the
	// expected losing outcomes.
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + h)))
			<-start
			for b := 0; b < batches; b++ {
				vecs := make([]fixed.Vector, batchSize)
				batch := make([][]byte, batchSize)
				for i := range batch {
					vecs[i] = randomVector(rng, dim)
					batch[i] = signedVector(t, key, "svc", victimRound, vecs[i])
				}
				for i, err := range add(victim, batch...) {
					switch {
					case err == nil:
						mu.Lock()
						acceptedSum.AddInPlace(vecs[i])
						acceptedCount++
						mu.Unlock()
					case errors.Is(err, ErrRoundSealed), errors.Is(err, ErrRoundClosed):
						// Sealed under us (by the sealer or an eviction):
						// fine, as long as it was never reported accepted.
					default:
						t.Errorf("hammer %d: unexpected error %v", h, err)
					}
				}
			}
		}(h)
	}

	// Sealer: seals the victim once the eviction storm is warmed up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		<-sprayWarm
		if err := victim.Seal(); err != nil && !errors.Is(err, ErrRoundClosed) {
			t.Errorf("seal: %v", err)
		}
	}()

	close(start)
	wg.Wait()
	close(stopSpray)
	<-sprayDone

	// Settle the victim (it may already be sealed or evicted+closed).
	if err := victim.Seal(); err != nil && !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("final seal: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := victim.Count(); got != acceptedCount {
		t.Fatalf("accepted-then-lost: victim count %d, its frames reported %d accepted", got, acceptedCount)
	}
	sum := victim.Sum()
	for d := range acceptedSum {
		if sum[d] != acceptedSum[d] {
			t.Fatalf("aggregate diverges at dim %d: %v != %v (accepted contributions lost or double-counted)", d, sum[d], acceptedSum[d])
		}
	}
}
