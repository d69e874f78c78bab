package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"glimmers/internal/audit"
	"glimmers/internal/fixed"
	"glimmers/internal/service"
	"glimmers/internal/xcrypto"
)

const testTenant = "durable.example"

func testClock() int64 { return 1_700_000_000 }

// newTestRegistry builds a registry shaped like the canonical test
// tenant: dim 4, tickets on, injected clock. Verify is nil (the
// pre-authenticated mode) — durable state does not depend on keys.
func newTestRegistry(t *testing.T) *service.Registry {
	t.Helper()
	reg := service.NewRegistry(64)
	_, err := reg.AddTenant(service.TenantConfig{
		Name:         testTenant,
		Dim:          4,
		Workers:      1,
		TicketPolicy: &service.TicketConfig{MaxTickets: 8, TTL: 3600, Now: testClock},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func sessionKey(b byte) xcrypto.SessionKey {
	var k xcrypto.SessionKey
	for i := range k {
		k[i] = b
	}
	return k
}

func digest(b byte) [32]byte {
	var d [32]byte
	for i := range d {
		d[i] = b
	}
	return d
}

// testState builds a populated, deterministically ordered state for the
// canonical test tenant.
func testState(t *testing.T) service.RegistryState {
	t.Helper()
	reg := newTestRegistry(t)
	tn, _ := reg.Tenant(testTenant)
	return service.RegistryState{
		Rejected: 3,
		Tenants: []service.TenantState{{
			Name:         testTenant,
			ConfigDigest: tn.ConfigDigest(),
			Rejected:     2,
			Rounds: []service.RoundState{
				{
					Round: 1, Phase: service.RoundPhaseSealed, Count: 2, Rejected: 1,
					Sum:     fixed.Vector{10, 20, 30, 40},
					Digests: [][32]byte{digest(0x11), digest(0x22)},
				},
				{
					Round: 2, Phase: service.RoundPhaseOpen, Count: 1, Rejected: 0,
					Sum:     fixed.Vector{5, 6, 7, 8},
					Digests: [][32]byte{digest(0x33)},
				},
			},
			Tickets: []service.TicketState{
				{ID: 7, Key: sessionKey(0xA1), RoundFirst: 1, RoundLast: 4, ExpiresUnix: testClock() + 3600},
				{ID: 9, Key: sessionKey(0xB2), RoundFirst: 2, RoundLast: 2, ExpiresUnix: testClock() + 60},
			},
		}},
	}
}

// The acceptance criterion: export → encode → restore → export → encode
// must round-trip byte-identically.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	st := testState(t)
	enc1 := EncodeSnapshot(st, 7)

	dec, gen, err := DecodeSnapshot(enc1)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 {
		t.Fatalf("generation = %d, want 7", gen)
	}
	reg := newTestRegistry(t)
	if err := reg.RestoreState(dec); err != nil {
		t.Fatal(err)
	}
	enc2 := EncodeSnapshot(reg.ExportState(), 7)
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("snapshot not byte-identical after restore:\n enc1: %x\n enc2: %x", enc1, enc2)
	}
}

func TestRestoreRefusesConfigMismatch(t *testing.T) {
	st := testState(t)
	st.Tenants[0].ConfigDigest[0] ^= 0xFF
	reg := newTestRegistry(t)
	if err := reg.RestoreState(st); err == nil {
		t.Fatal("restore accepted a state with a mismatched config digest")
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), bytes.Repeat([]byte{0xFF}, 64)} {
		if _, _, err := DecodeSnapshot(data); err == nil {
			t.Fatalf("decoded garbage %x", data)
		}
	}
	// Truncations of a valid snapshot must all fail, never panic.
	full := EncodeSnapshot(testState(t), 1)
	for n := 0; n < len(full); n++ {
		if _, _, err := DecodeSnapshot(full[:n]); err == nil {
			t.Fatalf("decoded truncation at %d/%d", n, len(full))
		}
	}
}

// TestDecodeSnapshotRefusesCountMismatch: a round's count is the size of its
// dedup set, so a snapshot whose count field says otherwise is damaged and
// must fail as loudly as any other — not restore a round that claims
// contributions nothing can deduplicate (or sign a partial seal the
// coordinator's decoder would refuse for the same disagreement).
func TestDecodeSnapshotRefusesCountMismatch(t *testing.T) {
	for _, count := range []uint64{0, 3} {
		st := testState(t)
		st.Tenants[0].Rounds[1].Count = count // one digest
		if _, _, err := DecodeSnapshot(EncodeSnapshot(st, 1)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("count %d over 1 digest: err = %v, want ErrBadSnapshot", count, err)
		}
	}
}

// driveStore journals a deterministic mutation sequence through a
// journal (the store under test, or the golden-fixture collector),
// mirroring what live ingest would report.
func driveStore(s service.Journal) {
	s.RoundCreated(testTenant, 1)
	s.BatchAccepted(testTenant, 1, [][32]byte{digest(0x11), digest(0x22)}, fixed.Vector{10, 20, 30, 40})
	s.Rejected(testTenant, 1, service.LevelRound, 1)
	s.RoundSealed(testTenant, 1)
	s.RoundCreated(testTenant, 2)
	s.BatchAccepted(testTenant, 2, [][32]byte{digest(0x33)}, fixed.Vector{5, 6, 7, 8})
	s.DropoutCorrected(testTenant, 2, fixed.Vector{1, 1, 1, 1})
	s.Rejected(testTenant, 0, service.LevelManager, 2)
	s.Rejected("", 0, service.LevelRegistry, 3)
	s.TicketGranted(testTenant, service.TicketState{ID: 7, Key: sessionKey(0xA1), RoundFirst: 1, RoundLast: 4, ExpiresUnix: testClock() + 3600})
	s.TicketGranted(testTenant, service.TicketState{ID: 9, Key: sessionKey(0xB2), RoundFirst: 2, RoundLast: 2, ExpiresUnix: testClock() + 60})
	s.TicketEvicted(testTenant, 9)
}

func recoverInto(t *testing.T, dir string) (*service.Registry, *Store, RecoverStats) {
	t.Helper()
	reg := newTestRegistry(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := s.Recover(reg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, s, stats
}

func checkReplayedState(t *testing.T, reg *service.Registry) {
	t.Helper()
	tn, _ := reg.Tenant(testTenant)
	m := tn.Manager()
	p1, ok := m.Lookup(1)
	if !ok {
		t.Fatal("round 1 not recovered")
	}
	if got := p1.Sum(); !reflect.DeepEqual(got, fixed.Vector{10, 20, 30, 40}) {
		t.Errorf("round 1 sum = %v", got)
	}
	if p1.Count() != 2 || p1.Rejected() != 1 {
		t.Errorf("round 1 count=%d rejected=%d", p1.Count(), p1.Rejected())
	}
	p2, ok := m.Lookup(2)
	if !ok {
		t.Fatal("round 2 not recovered")
	}
	if got := p2.Sum(); !reflect.DeepEqual(got, fixed.Vector{6, 7, 8, 9}) {
		t.Errorf("round 2 sum = %v (accepted + dropout correction)", got)
	}
	if m.Rejected() != 2 || reg.Rejected() != 3 {
		t.Errorf("manager rejected=%d registry rejected=%d", m.Rejected(), reg.Rejected())
	}
}

func TestStoreRecoverReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	_, sA, _ := recoverInto(t, dir)
	driveStore(sA)
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}

	regB, sB, stats := recoverInto(t, dir)
	defer sB.Close()
	if stats.Records != 12 {
		t.Fatalf("replayed %d records, want 12", stats.Records)
	}
	if stats.TruncatedBytes != 0 || stats.ReplayErrors != 0 {
		t.Fatalf("unexpected stats %+v", stats)
	}
	checkReplayedState(t, regB)
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	_, sA, _ := recoverInto(t, dir)
	driveStore(sA)
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append half a frame header plus garbage.
	walPath := filepath.Join(dir, "wal.1")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x00, 0x40, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	aud := audit.NewLog(nil, testClock)
	regB := newTestRegistry(t)
	sB, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sB.SetAudit(aud)
	stats, err := sB.Recover(regB)
	if err != nil {
		t.Fatal(err)
	}
	defer sB.Close()
	if stats.Records != 12 || stats.TruncatedBytes != 6 {
		t.Fatalf("stats = %+v, want 12 records and 6 truncated bytes", stats)
	}
	checkReplayedState(t, regB)

	truncated := false
	for _, line := range aud.Tail() {
		if strings.Contains(line, "wal-truncated") {
			truncated = true
		}
	}
	if !truncated {
		t.Fatalf("audit log missing wal-truncated event: %v", aud.Tail())
	}

	// The tear is gone from disk: a third recovery sees a clean file.
	regC, sC, stats := recoverInto(t, dir)
	defer sC.Close()
	if stats.TruncatedBytes != 0 || stats.Records != 12 {
		t.Fatalf("post-truncation stats = %+v", stats)
	}
	checkReplayedState(t, regC)
}

func TestWALCorruptMidFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	_, sA, _ := recoverInto(t, dir)
	driveStore(sA)
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the last frame's payload: its CRC fails, replay
	// keeps everything before it.
	walPath := filepath.Join(dir, "wal.1")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	regB, sB, stats := recoverInto(t, dir)
	defer sB.Close()
	if stats.Records != 11 || stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want 11 records and a truncated tail", stats)
	}
	// The lost record was the eviction of ticket 9; everything else held.
	tn, _ := regB.Tenant(testTenant)
	if got := tn.Manager().Rejected(); got != 2 {
		t.Errorf("manager rejected = %d", got)
	}
}

func TestSnapshotRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	regA, sA, _ := recoverInto(t, dir)
	// Mutate through the service API so the registry state and the
	// journal stay coupled, as they are in production.
	if err := regA.Ingest([]byte("garbage")); err == nil {
		t.Fatal("garbage ingested")
	}
	tnA, _ := regA.Tenant(testTenant)
	m := tnA.Manager()
	if err := m.Round(1).CorrectDropout(fixed.Vector{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := m.Seal(1); err != nil {
		t.Fatal(err)
	}

	if err := sA.Snapshot(regA); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.1")); !os.IsNotExist(err) {
		t.Fatal("wal.1 survived the snapshot rotation")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.2")); err != nil {
		t.Fatal("wal.2 missing after rotation")
	}
	// Post-snapshot mutations land in the new generation.
	m.Round(3)
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}

	regB, sB, stats := recoverInto(t, dir)
	defer sB.Close()
	if !stats.SnapshotLoaded || stats.Generation != 2 || stats.Records != 1 {
		t.Fatalf("stats = %+v, want snapshot at generation 2 plus 1 record", stats)
	}
	tnB, _ := regB.Tenant(testTenant)
	p1, ok := tnB.Manager().Lookup(1)
	if !ok {
		t.Fatal("round 1 not in snapshot")
	}
	if got := p1.Sum(); !reflect.DeepEqual(got, fixed.Vector{1, 2, 3, 4}) {
		t.Errorf("round 1 sum = %v", got)
	}
	if _, ok := tnB.Manager().Lookup(3); !ok {
		t.Fatal("post-snapshot round 3 not replayed")
	}
	if regB.Rejected() != 1 {
		t.Errorf("registry rejected = %d", regB.Rejected())
	}

	// And the recovered registry exports the same image the writer
	// would: byte-identical continuation.
	if !bytes.Equal(EncodeSnapshot(regA.ExportState(), 9), EncodeSnapshot(regB.ExportState(), 9)) {
		t.Fatal("recovered registry diverges from the one that wrote the snapshot")
	}
}

func TestTicketsSurviveRecovery(t *testing.T) {
	dir := t.TempDir()
	_, sA, _ := recoverInto(t, dir)
	driveStore(sA)
	sA.Close()

	regB, sB, _ := recoverInto(t, dir)
	defer sB.Close()
	st := regB.ExportState()
	if len(st.Tenants) != 1 || len(st.Tenants[0].Tickets) != 1 {
		t.Fatalf("tickets after replay = %+v, want exactly ticket 7 (9 was evicted)", st.Tenants[0].Tickets)
	}
	tk := st.Tenants[0].Tickets[0]
	if tk.ID != 7 || tk.Key != sessionKey(0xA1) {
		t.Fatalf("ticket 7 state = %+v", tk)
	}
}
