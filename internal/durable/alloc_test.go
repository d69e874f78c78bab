package durable

import (
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
	"glimmers/internal/service"
)

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
	if got := testing.AllocsPerRun(runs, func() {
		s.Append(service.Record{Kind: service.BatchAccepted, Tenant: testTenant, Round: 1, Digests: digests, Lanes: delta})
	}); got > 0 {
		t.Errorf("Append(BatchAccepted): %.2f allocs/op, want 0", got)
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
	raws := orderRaws((runs+3)*batchSize, dim, round, &skey)
	// perFrame measures steady-state frames through a fresh registry,
	// journaling into s when it is non-nil.
	perFrame := func(s *Store) float64 {
		reg := service.NewRegistry(64)
		hosted, err := reg.AddTenant(service.TenantConfig{
			Name: testTenant, Dim: dim, Workers: 1,
			ExpectedCohort: len(raws), TicketPolicy: &service.TicketConfig{},
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
		// Create the round, warm the arena and the shards; the second
		// frame's check makes the table cache the ticket's AEAD.
		ingest(0)
		ingest(1)
		if s != nil {
			warmStaging(t, s, runs+1, make([][32]byte, batchSize), fixed.NewVector(dim))
		}
		b := 1
		got := testing.AllocsPerRun(runs, func() {
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
	if journaled > bare {
		t.Errorf("journaled frame: %.2f allocs/op, unjournaled %.2f: the journal costs %.2f, want 0",
			journaled, bare, journaled-bare)
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
	// Create the round and warm the arena and shards; the second
	// contribution's check makes the table cache the ticket's AEAD.
	ingest(0)
	ingest(1)
	warmStaging(t, s, runs+1, make([][32]byte, 1), fixed.NewVector(dim))
	i := 1
	if got := testing.AllocsPerRun(runs, func() {
		i++
		ingest(i)
	}); got > 0 {
		t.Errorf("journaled Registry.Ingest: %.2f allocs/op, want 0", got)
	}
	hosted, _ := reg.Tenant(testTenant)
	if p, ok := hosted.Manager().Lookup(round); !ok || p.Count() != i+1 {
		t.Fatalf("round %d holds %v, want %d accepted", round, p, i+1)
	}
}
