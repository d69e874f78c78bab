package durable

import (
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
	"glimmers/internal/service"
	"glimmers/internal/xcrypto"
)

// warmStaging gives both of the store's staging segments their steady-state
// capacity: it stages a full measured window's worth of batch watermarks,
// then a Flush swaps the segments, twice. manualConfig keeps the background
// flusher out of the measured window that follows.
func warmStaging(t *testing.T, s *Store, records int, digests [][32]byte, delta fixed.Vector) {
	t.Helper()
	for swap := 0; swap < 2; swap++ {
		for i := 0; i < records; i++ {
			s.BatchAccepted(testTenant, 1, digests, delta)
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
		s.BatchAccepted(testTenant, 1, digests, delta)
	}); got > 0 {
		t.Errorf("BatchAccepted: %.2f allocs/op, want 0", got)
	}
	if st := s.Stats(); st.Records != 3*(runs+1) || st.Writes != 2 {
		t.Errorf("stats = %+v, want %d records, 2 writes (the flusher ran inside the window?)", st, 3*(runs+1))
	}
}

// TestJournaledBatchIngestAllocFree is TestAddBatchErrsAllocFree of the
// service package with the durability tax on: the batch plan journaling one
// BatchAccepted record per frame into a live store still allocates nothing
// per frame.
func TestJournaledBatchIngestAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim, round, batchSize, runs = 256, uint64(7), 128, 50
	s := openManual(t, t.TempDir())
	defer s.Close()
	var skey xcrypto.SessionKey
	skey[0] = 0xA7
	tbl := service.NewTicketTable(service.TicketConfig{})
	tbl.Install(7, skey, 1, 1<<32, 1<<62)
	raws := orderRaws((runs+2)*batchSize, dim, round, &skey)
	p := service.NewPipeline(service.PipelineConfig{
		ServiceName:    testTenant,
		Dim:            dim,
		Round:          round,
		Tickets:        tbl,
		Workers:        1,
		ExpectedCohort: len(raws),
		Journal:        s,
	})
	defer p.Close()
	errs := make([]error, batchSize)
	ingest := func(b int) {
		p.AddBatchErrs(raws[b*batchSize:(b+1)*batchSize], errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0) // warm the arena, MAC snapshots, shards
	warmStaging(t, s, runs+1, make([][32]byte, batchSize), fixed.NewVector(dim))
	b := 0
	if got := testing.AllocsPerRun(runs, func() {
		b++
		ingest(b)
	}); got > 0 {
		t.Errorf("journaled AddBatchErrs: %.2f allocs/op, want 0", got)
	}
	if p.Count() != (b+1)*batchSize {
		t.Fatalf("count = %d, want %d", p.Count(), (b+1)*batchSize)
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
	reg.ReplayJournal(nil).TicketGranted(testTenant, service.TicketState{
		ID: 7, Key: skey, RoundFirst: 1, RoundLast: 4, ExpiresUnix: testClock() + 3600,
	})
	reg.SetJournal(s)
	raws := orderRaws(runs+2, dim, round, &skey)
	ingest := func(i int) {
		if err := reg.Ingest(raws[i]); err != nil {
			t.Fatal(err)
		}
	}
	ingest(0) // create the round, warm the scratch and shards
	warmStaging(t, s, runs+1, make([][32]byte, 1), fixed.NewVector(dim))
	i := 0
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
