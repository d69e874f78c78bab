package durable

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"glimmers/internal/audit"
	"glimmers/internal/fixed"
	"glimmers/internal/service"
)

// manualConfig disables every automatic flush trigger: records reach the
// disk only through barriers, explicit Flush, or Close — the
// deterministic mode the tests (and the crash simulator) rely on.
var manualConfig = Config{FlushBytes: 1 << 30, FlushInterval: time.Hour}

func openManual(t *testing.T, dir string) *Store {
	t.Helper()
	reg := newTestRegistry(t)
	s, err := OpenConfig(dir, manualConfig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(reg); err != nil {
		t.Fatal(err)
	}
	return s
}

// countFrames walks the on-disk WAL of the given generation and returns
// how many intact frames it holds right now — what a crash at this
// instant would leave recoverable.
func countFrames(t *testing.T, dir string, gen string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "wal."+gen))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if _, err := walkWAL(data, func([]byte) error { n++; return nil }); err != nil {
		t.Fatalf("WAL has a torn tail after %d frames", n)
	}
	return n
}

// TestGroupCommitCoalesces pins the whole point of the rewrite: many
// async records become one write(2). With automatic flushing disabled,
// 200 staged accepts plus one Flush must produce exactly one write and
// one fsync.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	s := openManual(t, dir)
	defer s.Close()

	const n = 200
	for i := 0; i < n; i++ {
		s.Append(acceptRecord(1, [][32]byte{digest(byte(i))}, fixed.Vector{1, 2, 3, 4}))
	}
	if st := s.Stats(); st.Writes != 0 {
		t.Fatalf("async records hit the disk before any flush: %+v", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Records != n || st.Writes != 1 || st.Syncs != 1 {
		t.Errorf("stats = %+v, want %d records in exactly 1 write and 1 sync", st, n)
	}
	if st.StagedPeak == 0 || st.BytesWritten == 0 {
		t.Errorf("stats not tracking staging: %+v", st)
	}
	if got := countFrames(t, dir, "1"); got != n {
		t.Errorf("WAL holds %d frames, want %d", got, n)
	}
}

// TestBarrierMakesPrefixDurable: when a barrier record (here RoundSealed)
// returns, it and every record staged before it are on disk — no Flush,
// no Close, no background interval.
func TestBarrierMakesPrefixDurable(t *testing.T) {
	dir := t.TempDir()
	s := openManual(t, dir)
	defer s.Close()

	s.Append(roundRecord(service.RoundCreated, 1))
	for i := 0; i < 5; i++ {
		s.Append(acceptRecord(1, [][32]byte{digest(byte(i))}, fixed.Vector{1, 2, 3, 4}))
	}
	s.Append(roundRecord(service.RoundSealed, 1))

	if got := countFrames(t, dir, "1"); got != 7 {
		t.Errorf("WAL holds %d frames after the seal barrier, want all 7", got)
	}
	st := s.Stats()
	if st.BarrierWaits != 1 || st.Syncs == 0 {
		t.Errorf("stats = %+v, want 1 barrier wait backed by an fsync", st)
	}
}

// TestGiantRecordReleasesCapacity is the unbounded-growth regression
// test: one giant BatchAccepted (bigger than the staging retention cap)
// must neither corrupt the WAL nor pin its high-water allocation in the
// recycled buffers.
func TestGiantRecordReleasesCapacity(t *testing.T) {
	dir := t.TempDir()
	s := openManual(t, dir)

	// ~6.4 MB of digests: over maxRetainedRecord for the encoder pool and
	// over the 4 MiB staging-retention floor.
	giant := make([][32]byte, 200_000)
	for i := range giant {
		var d [32]byte
		d[0], d[1], d[2] = byte(i), byte(i>>8), byte(i>>16)
		giant[i] = d
	}
	s.Append(roundRecord(service.RoundCreated, 1))
	s.Append(acceptRecord(1, giant, fixed.Vector{1, 2, 3, 4}))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	spareCap, stagedCap, retained := cap(s.spare), cap(s.staged), s.maxRetained
	s.mu.Unlock()
	if spareCap > retained || stagedCap > retained {
		t.Errorf("giant record pinned its capacity: spare=%d staged=%d, cap %d", spareCap, stagedCap, retained)
	}

	// The record itself is intact: a fresh recovery replays every digest.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	regB, sB, stats := recoverInto(t, dir)
	defer sB.Close()
	if stats.Records != 2 || stats.ReplayErrors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	tn, _ := regB.Tenant(testTenant)
	p, ok := tn.Manager().Lookup(1)
	if !ok || p.Count() != len(giant) {
		t.Fatalf("giant batch replayed %d digests, want %d", p.Count(), len(giant))
	}
}

// TestWALErrorAuditedImmediately (and barrier liveness on a dead WAL):
// the first write-path failure must surface in the audit log right away
// — not at shutdown — and a barrier issued afterwards must return, not
// hang on an fsync that will never come.
func TestWALErrorAuditedImmediately(t *testing.T) {
	dir := t.TempDir()
	sink := &auditSink{}
	aud := audit.NewLog(sink, testClock)
	reg := newTestRegistry(t)
	s, err := OpenConfig(dir, manualConfig)
	if err != nil {
		t.Fatal(err)
	}
	s.SetAudit(aud)
	if _, err := s.Recover(reg); err != nil {
		t.Fatal(err)
	}

	// Kill the WAL out from under the store: every later write fails the
	// way a yanked disk or a full filesystem would.
	s.mu.Lock()
	s.f.Close()
	s.mu.Unlock()

	s.Append(acceptRecord(1, [][32]byte{digest(1)}, fixed.Vector{1, 2, 3, 4}))
	done := make(chan struct{})
	go func() {
		s.Append(roundRecord(service.RoundSealed, 1)) // barrier: must return despite the dead file
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier hung on a dead WAL")
	}

	if err := s.Err(); err == nil {
		t.Fatal("write failure not sticky")
	}
	if !strings.Contains(sink.String(), "wal-error") {
		t.Fatalf("audit log missing wal-error event: %s", sink)
	}
	if err := s.Close(); err == nil {
		t.Fatal("Close cleared the sticky error")
	}
}

// TestInlineBackpressureFlush: with the background flusher stopped (the
// starved-flusher worst case), staging past 4x FlushBytes makes the
// journal caller flush inline instead of growing without bound.
func TestInlineBackpressureFlush(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t)
	s, err := OpenConfig(dir, Config{FlushBytes: 256, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(reg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.stopFlusher()

	for i := 0; i < 64; i++ {
		s.Append(acceptRecord(1, [][32]byte{digest(byte(i))}, fixed.Vector{1, 2, 3, 4}))
	}
	st := s.Stats()
	if st.Writes == 0 {
		t.Fatalf("no inline flush despite a stopped flusher: %+v", st)
	}
	s.mu.Lock()
	staged := len(s.staged)
	s.mu.Unlock()
	if staged >= 4*256+128 {
		t.Errorf("staging grew past the backpressure bound: %d bytes", staged)
	}
}

// TestBackgroundFlusherInterval: async records reach the disk within the
// flush interval with no barrier, Flush, or Close involved — the
// documented loss-window bound.
func TestBackgroundFlusherInterval(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t)
	s, err := OpenConfig(dir, Config{FlushBytes: 1 << 30, FlushInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(reg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	s.Append(acceptRecord(1, [][32]byte{digest(1)}, fixed.Vector{1, 2, 3, 4}))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Writes > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("record never flushed in the background: %+v", s.Stats())
}

// TestStagedBytesWakeTheFlusher: staging FlushBytes wakes the background
// flusher early — the -wal-flush-bytes promise — with no barrier, Flush,
// or snapshot involved, long before the flush interval and below the 4x
// backpressure bound, so no inline flush does it either.
func TestStagedBytesWakeTheFlusher(t *testing.T) {
	const flushBytes = 4 << 10
	reg := newTestRegistry(t)
	s, err := OpenConfig(t.TempDir(), Config{FlushBytes: flushBytes, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(reg); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; s.Stats().StagedPeak < flushBytes; i++ {
		s.Append(acceptRecord(1, [][32]byte{digest(byte(i))}, fixed.Vector{1, 2, 3, 4}))
	}
	if peak := s.Stats().StagedPeak; peak >= 4*flushBytes {
		t.Fatalf("staged %d bytes, past the inline-flush bound %d", peak, 4*flushBytes)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().Writes > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("staging %d bytes never woke the flusher: %+v", flushBytes, s.Stats())
}
