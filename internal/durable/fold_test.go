package durable

import (
	"encoding/binary"
	"errors"
	"reflect"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/service"
)

// holdJournal journals every record through its store, except that the
// first BatchAccepted is held: its Append signals held and returns only
// once release is closed. The frame's delta is then in the registry but
// not yet staged, the window a live Snapshot must not count twice.
type holdJournal struct {
	s             *Store
	once          sync.Once
	held, release chan struct{}
}

func newHoldJournal(s *Store) *holdJournal {
	return &holdJournal{s: s, held: make(chan struct{}), release: make(chan struct{})}
}

func (h *holdJournal) Append(rec service.Record) {
	if rec.Kind == service.BatchAccepted {
		h.once.Do(func() {
			close(h.held)
			<-h.release
		})
	}
	h.s.Append(rec)
}

// snapshotAcross ingests frame into reg on a goroutine of its own, holds
// its accept record across a Snapshot of s, then releases it and waits for
// the frame to return.
func snapshotAcross(t *testing.T, reg *service.Registry, s *Store, hold *holdJournal, frame [][]byte) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, errs := reg.IngestBatch(frame)
		done <- errors.Join(errs...)
	}()
	<-hold.held
	err := s.Snapshot(reg)
	close(hold.release)
	if ierr := <-done; ierr != nil {
		t.Fatalf("frame refused: %v", ierr)
	}
	return err
}

// TestSnapshotUnderConcurrentIngestIsExact: a frame whose accept record is
// still on its way to the journal when Snapshot cuts the WAL lands in the
// next generation, so the image must not hold its delta as well. The
// round comes back from Recover with the exact count and sum.
func TestSnapshotUnderConcurrentIngestIsExact(t *testing.T) {
	dir := t.TempDir()
	reg, s, _ := recoverInto(t, dir)
	tk := liveTicket()
	grantTicket(t, reg, tk)
	frames := orderRaws(3, 4, 1, &tk.Key)
	ingestFrame(t, reg, frames[:2])

	hold := newHoldJournal(s)
	reg.SetJournal(hold)
	if err := snapshotAcross(t, reg, s, hold, frames[2:]); err != nil {
		t.Fatal(err)
	}
	want, _ := roundOf(reg, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.Abandon()

	regB, sB, _ := recoverInto(t, dir)
	defer sB.Close()
	if got, ok := roundOf(regB, 1); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("round 1 after recovery = %+v (found %v), want %+v", got, ok, want)
	}
}

// BenchmarkSnapshotFold prices a Snapshot by the WAL it folds, in the
// shape of edge-steady's records: dim-256 frames of 128 digests, rounds of
// 4,096 contributions that are sealed, closed and forgotten, so the image
// stays small and the fold's cost is the WAL's. Each iteration journals
// foldRounds rounds (untimed), then snapshots them away.
func BenchmarkSnapshotFold(b *testing.B) {
	const dim, frameItems, roundItems, foldRounds = 256, 128, 4096, 4
	reg := service.NewRegistry(0)
	if _, err := reg.AddTenant(service.TenantConfig{Name: testTenant, Dim: dim, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	s, err := OpenConfig(b.TempDir(), Config{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Recover(reg); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	digests := make([][32]byte, frameItems)
	lanes := fixed.NewVector(dim)
	for i := range lanes {
		lanes[i] = fixed.Ring(i * 7919)
	}
	journal := func() {
		for round := uint64(1); round <= foldRounds; round++ {
			s.Append(roundRecord(service.RoundCreated, round))
			for f := range roundItems / frameItems {
				for i := range digests {
					binary.BigEndian.PutUint64(digests[i][:], round)
					binary.BigEndian.PutUint64(digests[i][8:], uint64(f*frameItems+i))
				}
				s.Append(acceptRecord(round, digests, lanes))
			}
			for _, kind := range []service.RecordKind{service.RoundSealed, service.RoundClosed, service.RoundForgotten} {
				s.Append(roundRecord(kind, round))
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed pass sizes an iteration's WAL: every pass journals the
	// same records.
	before := s.Stats().BytesWritten
	journal()
	b.SetBytes(int64(s.Stats().BytesWritten - before))
	if err := s.Snapshot(reg); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		journal()
		b.StartTimer()
		if err := s.Snapshot(reg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*foldRounds*roundItems), "ns/contrib")
}
