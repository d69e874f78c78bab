package durable

import (
	"encoding/binary"
	"runtime"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
	"glimmers/internal/service"
)

// onOneP runs f on a single P, as race.Mallocs measures, with the
// service's pool of spare dedup sets emptied first: the sets a round
// forgotten inside f hands back are then the ones the next round f creates
// takes.
func onOneP(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC() // the first collection moves the pool to its victim cache,
	runtime.GC() // the second drops it
	f()
}

// warmStaging gives both of the store's staging segments their steady-state
// capacity: it stages a full measured window's worth of batch watermarks,
// then a Flush swaps the segments, twice. manualConfig keeps the background
// flusher out of the measured window that follows.
func warmStaging(t *testing.T, s *Store, records int, digests [][32]byte, delta fixed.Vector) {
	t.Helper()
	for swap := 0; swap < 2; swap++ {
		for i := 0; i < records; i++ {
			s.Append(service.Record{Kind: service.BatchAccepted, Tenant: testTenant, Round: 1, Digests: digests, Lanes: delta})
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatchAcceptedAllocFree pins the journal hot path: staging one
// 128-digest, dim-256 batch watermark — encode on a pooled writer, CRC
// frame, append to the staging segment — allocates nothing on a warmed
// store.
func TestBatchAcceptedAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const runs = 100
	s := openManual(t, t.TempDir())
	defer s.Close()
	digests := make([][32]byte, 128)
	for i := range digests {
		digests[i] = digest(byte(i))
	}
	delta := fixed.NewVector(256)
	warmStaging(t, s, runs+1, digests, delta)
	if got := race.Mallocs(runs, func() {
		s.Append(service.Record{Kind: service.BatchAccepted, Tenant: testTenant, Round: 1, Digests: digests, Lanes: delta})
	}); got != 0 {
		t.Errorf("Append(BatchAccepted): %d allocs in %d appends, want 0", got, runs)
	}
	if st := s.Stats(); st.Records != 3*(runs+1) || st.Writes != 2 {
		t.Errorf("stats = %+v, want %d records, 2 writes (the flusher ran inside the window?)", st, 3*(runs+1))
	}
}

// TestJournaledBatchIngestAllocFree is TestAddBatchErrsAllocFree of the
// service package with the durability tax on: the batch plan journaling one
// BatchAccepted record per frame into a live store allocates nothing per
// frame beyond what the same frame costs unjournaled — the error slice
// Registry.IngestBatch returns (TestRegistryIngestBatchOneAlloc).
func TestJournaledBatchIngestAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim, round, batchSize, runs = 256, uint64(7), 128, 50
	skey := sessionKey(0xA7)
	// Twice the frames the measured round takes: a cleared dedup set hashes
	// under a new seed, so a set grown to exactly the round's size could
	// still split a table when the round refills it.
	raws := orderRaws(2*(runs+3)*batchSize, dim, round, &skey)
	// perFrame measures steady-state frames through a fresh registry,
	// journaling into s when it is non-nil.
	perFrame := func(s *Store) uint64 {
		reg := service.NewRegistry(64)
		hosted, err := reg.AddTenant(service.TenantConfig{
			Name: testTenant, Dim: dim, Workers: 1, TicketPolicy: &service.TicketConfig{},
		})
		if err != nil {
			t.Fatal(err)
		}
		grantTicket(t, reg, service.TicketState{ID: 7, Key: skey, RoundFirst: 1, RoundLast: 1 << 32, ExpiresUnix: 1 << 62})
		if s != nil {
			reg.SetJournal(s)
		}
		ingest := func(b int) {
			_, errs := reg.IngestBatch(raws[b*batchSize : (b+1)*batchSize])
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		// A first life of the round takes every frame and is forgotten, so
		// the round ingest(0) re-creates takes dedup sets that hold them
		// all; the frames warm the arena, and the table caches the
		// ticket's AEAD.
		onOneP(func() {
			for b := range len(raws) / batchSize {
				ingest(b)
			}
			hosted.Manager().Forget(round)
			ingest(0)
		})
		ingest(1)
		if s != nil {
			warmStaging(t, s, runs+1, make([][32]byte, batchSize), fixed.NewVector(dim))
		}
		b := 1
		got := race.Mallocs(runs, func() {
			b++
			ingest(b)
		})
		if p, ok := hosted.Manager().Lookup(round); !ok || p.Count() != (b+1)*batchSize {
			t.Fatalf("round %d holds %v, want %d accepted", round, p, (b+1)*batchSize)
		}
		return got
	}
	s := openManual(t, t.TempDir())
	defer s.Close()
	bare, journaled := perFrame(nil), perFrame(s)
	if journaled != bare {
		t.Errorf("%d journaled frames: %d allocs, unjournaled %d: the journal costs %d, want 0",
			runs, journaled, bare, int64(journaled)-int64(bare))
	}
}

// TestJournaledIngestAllocFree is the per-item counterpart: one ticketed
// contribution routed through Registry.Ingest into a live store — route
// peek, table check, MAC, dedup insert, accumulate, one accept record
// staged — allocates nothing on a warmed round.
func TestJournaledIngestAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim, round, runs = 4, uint64(2), 200
	s := openManual(t, t.TempDir())
	defer s.Close()
	reg := newTestRegistry(t)
	skey := sessionKey(0xA7)
	grantTicket(t, reg, service.TicketState{ID: 7, Key: skey, RoundFirst: 1, RoundLast: 4, ExpiresUnix: testClock() + 3600})
	reg.SetJournal(s)
	raws := orderRaws(runs+3, dim, round, &skey)
	ingest := func(i int) {
		if err := reg.Ingest(raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A first life of the round takes every contribution and is forgotten,
	// so the round ingest(0) re-creates takes dedup sets that hold them all;
	// the contributions warm the arena, and the table caches the ticket's
	// AEAD.
	hosted, _ := reg.Tenant(testTenant)
	onOneP(func() {
		for i := range raws {
			ingest(i)
		}
		hosted.Manager().Forget(round)
		ingest(0)
	})
	ingest(1)
	warmStaging(t, s, runs+1, make([][32]byte, 1), fixed.NewVector(dim))
	i := 1
	if got := race.Mallocs(runs, func() {
		i++
		ingest(i)
	}); got != 0 {
		t.Errorf("journaled Registry.Ingest: %d allocs in %d runs, want 0", got, runs)
	}
	if p, ok := hosted.Manager().Lookup(round); !ok || p.Count() != i+1 {
		t.Fatalf("round %d holds %v, want %d accepted", round, p, i+1)
	}
}

// TestReplayReusesForgottenRoundSets pins what a fold pays for a WAL of
// equal rounds, each created, filled, sealed, closed and forgotten: the
// first round grows its dedup sets, and every later one replays its
// BatchAccepted records into the sets the one before handed back, with no
// allocation.
func TestReplayReusesForgottenRoundSets(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim, frameItems, frames = 8, 128, 32
	reg := service.NewRegistry(0)
	if _, err := reg.AddTenant(service.TenantConfig{Name: testTenant, Dim: dim, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	lanes := fixed.NewVector(dim)
	accepts := func(round uint64) []service.Record {
		recs := make([]service.Record, frames)
		for f := range recs {
			digests := make([][32]byte, frameItems)
			for i := range digests {
				// The shard a digest lands in is read off its first bytes.
				binary.BigEndian.PutUint64(digests[i][:], uint64(f*frameItems+i))
				binary.BigEndian.PutUint64(digests[i][8:], round)
			}
			recs[f] = acceptRecord(round, digests, lanes)
		}
		return recs
	}
	apply := func(rec service.Record) {
		if err := reg.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	first, second := accepts(1), accepts(2)
	onOneP(func() {
		apply(roundRecord(service.RoundCreated, 1))
		for _, rec := range first {
			apply(rec)
		}
		for _, kind := range []service.RecordKind{service.RoundSealed, service.RoundClosed, service.RoundForgotten} {
			apply(roundRecord(kind, 1))
		}
		apply(roundRecord(service.RoundCreated, 2))
	})
	f := 0
	if got := race.Mallocs(frames-1, func() {
		apply(second[f])
		f++
	}); got != 0 {
		t.Errorf("replaying a BatchAccepted of a round after a forgotten one: %d allocs in %d records, want 0", got, frames-1)
	}
	hosted, _ := reg.Tenant(testTenant)
	if p, ok := hosted.Manager().Lookup(2); !ok || p.Count() != frames*frameItems {
		t.Fatalf("round 2 holds %v, want %d accepted", p, frames*frameItems)
	}
}
