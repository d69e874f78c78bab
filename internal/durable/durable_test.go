package durable

import (
	"bytes"
	"errors"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"glimmers/internal/audit"
	"glimmers/internal/fixed"
	"glimmers/internal/service"
	"glimmers/internal/xcrypto"
)

const testTenant = "durable.example"

func testClock() int64 { return 1_700_000_000 }

// auditSink collects a store's audit lines; the store may still be writing
// while a test reads them.
type auditSink struct {
	mu    sync.Mutex
	lines strings.Builder
}

func (a *auditSink) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lines.Write(p)
}

func (a *auditSink) String() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lines.String()
}

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
					Round: 1, Phase: service.RoundPhaseSealed, Rejected: 1,
					Sum:     fixed.Vector{10, 20, 30, 40},
					Digests: [][32]byte{digest(0x11), digest(0x22)},
				},
				{
					Round: 2, Phase: service.RoundPhaseOpen, Rejected: 0,
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

// encodeImage is the image writeImage puts on disk for recs.
func encodeImage(recs iter.Seq[service.Record], gen uint64) []byte {
	var b bytes.Buffer
	if err := writeImage(&b, recs, gen); err != nil {
		panic(err) // a bytes.Buffer does not fail a write
	}
	return b.Bytes()
}

// fixtureImage is the image Snapshot writes of testState: the state
// restored into a registry, streamed through Registry.Records.
func fixtureImage(t *testing.T, gen uint64) []byte {
	t.Helper()
	reg := newTestRegistry(t)
	if err := reg.RestoreState(testState(t)); err != nil {
		t.Fatal(err)
	}
	return encodeImage(reg.Records(), gen)
}

// loadImageBytes applies an in-memory image to reg.
func loadImageBytes(reg *service.Registry, img []byte) (uint64, error) {
	return loadImage(reg, bytes.NewReader(img), int64(len(img)))
}

// The acceptance criterion: export → image → load → export → image
// must round-trip byte-identically.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	enc1 := encodeImage(slices.Values(testState(t).Records()), 7)
	reg := newTestRegistry(t)
	gen, err := loadImageBytes(reg, enc1)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 {
		t.Fatalf("generation = %d, want 7", gen)
	}
	enc2 := encodeImage(reg.Records(), 7)
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
	// Through the store, the mismatch is a record the image's Apply
	// refuses: the image does not load.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot"), encodeImage(slices.Values(st.Records()), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenConfig(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(newTestRegistry(t)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Recover of a mismatched image: err = %v, want ErrBadSnapshot", err)
	}
}

// TestDecodeSnapshotRejectsGarbage: garbage, and every truncation of a
// valid image — a frame boundary included, which only the image's closing
// record can tell from its end — fails Recover with ErrBadSnapshot.
func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	full := fixtureImage(t, 1)
	bad := [][]byte{[]byte("x"), bytes.Repeat([]byte{0xFF}, 64)}
	for n := 0; n < len(full); n++ {
		bad = append(bad, full[:n])
	}
	dir := t.TempDir()
	for i, data := range bad {
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenConfig(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(newTestRegistry(t)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("image %d (%d of %d bytes): err = %v, want ErrBadSnapshot", i, len(data), len(full), err)
		}
	}
}

// roundRecord and acceptRecord build records of the test tenant.
func roundRecord(kind service.RecordKind, round uint64) service.Record {
	return service.Record{Kind: kind, Tenant: testTenant, Round: round}
}

func acceptRecord(round uint64, digests [][32]byte, lanes fixed.Vector) service.Record {
	return service.Record{Kind: service.BatchAccepted, Tenant: testTenant, Round: round, Digests: digests, Lanes: lanes}
}

// grantTicket installs a ticket in the test tenant's table as replay does.
func grantTicket(t testing.TB, reg *service.Registry, tk service.TicketState) {
	t.Helper()
	if err := reg.Apply(service.Record{Kind: service.TicketGranted, Tenant: testTenant, Ticket: tk}); err != nil {
		t.Fatal(err)
	}
}

// driveStore journals a deterministic mutation sequence through a
// journal (the store under test, or the golden-fixture collector),
// mirroring what live ingest would report.
func driveStore(j service.Journal) {
	for _, rec := range []service.Record{
		roundRecord(service.RoundCreated, 1),
		acceptRecord(1, [][32]byte{digest(0x11), digest(0x22)}, fixed.Vector{10, 20, 30, 40}),
		{Kind: service.Rejected, Tenant: testTenant, Round: 1, Level: service.LevelRound, Count: 1},
		roundRecord(service.RoundSealed, 1),
		roundRecord(service.RoundCreated, 2),
		acceptRecord(2, [][32]byte{digest(0x33)}, fixed.Vector{5, 6, 7, 8}),
		{Kind: service.DropoutCorrected, Tenant: testTenant, Round: 2, Lanes: fixed.Vector{1, 1, 1, 1}},
		{Kind: service.Rejected, Tenant: testTenant, Level: service.LevelManager, Count: 2},
		{Kind: service.Rejected, Level: service.LevelRegistry, Count: 3},
		{Kind: service.TicketGranted, Tenant: testTenant, Ticket: service.TicketState{ID: 7, Key: sessionKey(0xA1), RoundFirst: 1, RoundLast: 4, ExpiresUnix: testClock() + 3600}},
		{Kind: service.TicketGranted, Tenant: testTenant, Ticket: service.TicketState{ID: 9, Key: sessionKey(0xB2), RoundFirst: 2, RoundLast: 2, ExpiresUnix: testClock() + 60}},
		{Kind: service.TicketEvicted, Tenant: testTenant, Ticket: service.TicketState{ID: 9}},
	} {
		j.Append(rec)
	}
}

func recoverInto(t *testing.T, dir string) (*service.Registry, *Store, RecoverStats) {
	t.Helper()
	reg := newTestRegistry(t)
	s, err := OpenConfig(dir, Config{})
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

	// Replay and restore are two ways into Registry.Apply: the image of the
	// replayed registry, recovered alone, must export the same bytes.
	if err := sB.Snapshot(regB); err != nil {
		t.Fatal(err)
	}
	regC, sC, stats := recoverInto(t, dir)
	defer sC.Close()
	if !stats.SnapshotLoaded || stats.Records != 0 {
		t.Fatalf("stats = %+v, want the snapshot alone", stats)
	}
	if replayed, restored := encodeImage(regB.Records(), 1), encodeImage(regC.Records(), 1); !bytes.Equal(replayed, restored) {
		t.Fatalf("restored image diverges from the replayed registry:\nreplayed %x\nrestored %x", replayed, restored)
	}
}

// TestWALTornTailSkipped: replay stops at a torn tail, keeps the intact
// prefix, audits the tear, and leaves the file as it found it.
func TestWALTornTailSkipped(t *testing.T) {
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

	sink := &auditSink{}
	aud := audit.NewLog(sink, testClock)
	regB := newTestRegistry(t)
	sB, err := OpenConfig(dir, Config{})
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
		t.Fatalf("stats = %+v, want 12 records and 6 torn bytes skipped", stats)
	}
	checkReplayedState(t, regB)

	if !strings.Contains(sink.String(), "wal-torn") {
		t.Fatalf("audit log missing wal-torn event: %s", sink)
	}

	// The tear stays on disk, in a generation no store writes again: a
	// third recovery skips it once more and rebuilds the same state.
	regC, sC, stats := recoverInto(t, dir)
	defer sC.Close()
	if stats.TruncatedBytes != 6 || stats.Records != 12 {
		t.Fatalf("third recovery stats = %+v, want the same 12 records and 6 torn bytes", stats)
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
	if !bytes.Equal(encodeImage(regA.Records(), 9), encodeImage(regB.Records(), 9)) {
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

// TestReplayRefusesMisdimensionedBatch: a first-generation WAL (no
// snapshot, so no config digest) written at one dimension and recovered
// into a tenant of the same name at another. The accepted batch must not
// half-apply — its digests counted, its delta dropped — but be refused
// whole and reported as a replay error, without truncating the WAL.
func TestReplayRefusesMisdimensionedBatch(t *testing.T) {
	dir := t.TempDir()
	_, sA, _ := recoverInto(t, dir)
	sA.Append(roundRecord(service.RoundCreated, 1))
	sA.Append(acceptRecord(1, [][32]byte{digest(0x11), digest(0x22)}, fixed.Vector{10, 20, 30, 40}))
	sA.Append(roundRecord(service.RoundSealed, 1))
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}

	reg := service.NewRegistry(64)
	if _, err := reg.AddTenant(service.TenantConfig{Name: testTenant, Dim: 8, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	sB, err := OpenConfig(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sB.Close()
	stats, err := sB.Recover(reg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 3 || stats.ReplayErrors != 1 || stats.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v, want 3 records, 1 replay error, nothing truncated", stats)
	}
	tn, _ := reg.Tenant(testTenant)
	p, ok := tn.Manager().Lookup(1)
	if !ok {
		t.Fatal("round 1 not recovered")
	}
	if p.Count() != 0 || !reflect.DeepEqual(p.Sum(), make(fixed.Vector, 8)) {
		t.Fatalf("round 1 count=%d sum=%v, want nothing applied", p.Count(), p.Sum())
	}
}

// TestRestoreRefusesMisdimensionedSum: a snapshot round whose sum has the
// wrong length is refused, not restored without its sum.
func TestRestoreRefusesMisdimensionedSum(t *testing.T) {
	st := testState(t)
	st.Tenants[0].Rounds[0].Sum = fixed.Vector{10, 20, 30}
	reg := newTestRegistry(t)
	if err := reg.RestoreState(st); err == nil {
		t.Fatal("restore accepted a round sum of the wrong dimension")
	}
}

// TestRecoverChainAfterTornCrashes: two crashes with a torn tail and no
// snapshot between them, a round sealed in each life. Each recovery skips
// every tear in the chain of generations and is exact; the second, which
// replays a chain of two, folds it into an image before it returns; a
// later Snapshot leaves the image and one WAL; and a stale WAL below the
// image — what a crash before Snapshot's removal leaves — is removed by
// Recover, not replayed.
func TestRecoverChainAfterTornCrashes(t *testing.T) {
	dir := t.TempDir()
	tk := liveTicket()
	reg, s, _ := recoverInto(t, dir)
	var sealed []service.RoundState
	for life := 1; life <= 2; life++ {
		grantTicket(t, reg, tk)
		round := uint64(life)
		ingestFrame(t, reg, orderRaws(3, 4, round, &tk.Key))
		tn, _ := reg.Tenant(testTenant)
		if err := tn.Manager().Seal(round); err != nil {
			t.Fatal(err)
		}
		rs, _ := roundOf(reg, round)
		sealed = append(sealed, rs)
		s.Abandon()
		f, err := os.OpenFile(s.walPath(s.gen), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xDE, 0xAD, 0xBE})
		f.Close()

		var stats RecoverStats
		reg, s, stats = recoverInto(t, dir)
		if stats.Generation != 1 || stats.TruncatedBytes != int64(7*life) || stats.ReplayErrors != 0 {
			t.Fatalf("life %d: stats = %+v, want generation 1 and %d torn bytes skipped", life, stats, 7*life)
		}
		for _, want := range sealed {
			if got, ok := roundOf(reg, want.Round); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("life %d: round %d recovered as %+v, want %+v", life, want.Round, got, want)
			}
		}
		if got, want := dirNames(t, dir), [][]string{{"wal.1", "wal.2"}, {"snapshot", "wal.4"}}[life-1]; !reflect.DeepEqual(got, want) {
			t.Fatalf("life %d: after Recover the directory holds %q, want %q", life, got, want)
		}
	}
	if err := s.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := dirNames(t, dir), []string{"snapshot", "wal.5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Snapshot the directory holds %q, want %q", got, want)
	}

	c := &recordCollector{}
	c.Append(roundRecord(service.RoundCreated, 99))
	stale := appendFrame([]byte(walMagic), c.payloads[0])
	if err := os.WriteFile(filepath.Join(dir, "wal.4"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	regB, sB, stats := recoverInto(t, dir)
	defer sB.Close()
	if _, ok := roundOf(regB, 99); ok || stats.Records != 0 {
		t.Fatalf("the stale WAL below the image was replayed (stats %+v)", stats)
	}
	if got, want := dirNames(t, dir), []string{"snapshot", "wal.5", "wal.6"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after Recover the directory holds %q, want %q", got, want)
	}
	for _, want := range sealed {
		if got, ok := roundOf(regB, want.Round); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d recovered from the image as %+v, want %+v", want.Round, got, want)
		}
	}
}

// dirNames lists the files in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// nodeKeyIn opens a store over dir and returns its node key.
func nodeKeyIn(t *testing.T, dir string) (*xcrypto.SigningKey, error) {
	t.Helper()
	s, err := OpenConfig(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s.NodeKey()
}

// TestNodeKeySurvivesReopen: the first NodeKey writes node.key, mode 0600;
// a reopened store reads the same key back.
func TestNodeKeySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	first, err := nodeKeyIn(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	again, err := nodeKeyIn(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	if first.Public().Fingerprint() != again.Public().Fingerprint() {
		t.Error("a reopened store returned another node key")
	}
	fi, err := os.Stat(filepath.Join(dir, "node.key"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o600 {
		t.Errorf("node.key mode %v, want 0600", fi.Mode().Perm())
	}
	other, err := nodeKeyIn(t, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if other.Public().Fingerprint() == first.Public().Fingerprint() {
		t.Error("two state directories share a node key")
	}
}

// TestNodeKeyOverwritesLeftoverTmp: a node.key.tmp left by a create that
// crashed before its rename is never read; the next NodeKey writes over it
// and renames it into place.
func TestNodeKeyOverwritesLeftoverTmp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "node.key.tmp")
	leftover := bytes.Repeat([]byte{0xAB}, 4096) // longer than any key: truncation shows
	if err := os.WriteFile(tmp, leftover, 0o600); err != nil {
		t.Fatal(err)
	}
	key, err := nodeKeyIn(t, dir)
	if err != nil {
		t.Fatalf("NodeKey with a leftover tmp: %v", err)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("node.key.tmp still there after NodeKey: %v", err)
	}
	der, err := os.ReadFile(filepath.Join(dir, "node.key"))
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := xcrypto.ParseSigningKey(der)
	if err != nil {
		t.Fatalf("node.key written over a leftover does not parse: %v", err)
	}
	if onDisk.Public().Fingerprint() != key.Public().Fingerprint() {
		t.Error("node.key holds another key than NodeKey returned")
	}
}

// TestNodeKeyRefusesDamagedFile: a node.key that does not parse — cut
// short, or garbled — fails NodeKey with an error naming the file, and is
// left as it was: a node's identity is never silently replaced.
func TestNodeKeyRefusesDamagedFile(t *testing.T) {
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	der, err := key.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// A flipped seed byte would parse as another key, which a coordinator
	// refuses as a swap; a flipped header byte does not parse at all.
	garbled := bytes.Clone(der)
	garbled[0] ^= 0xFF
	for name, body := range map[string][]byte{
		"truncated": der[:len(der)-5],
		"garbled":   garbled,
		"empty":     {},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "node.key")
			if err := os.WriteFile(path, body, 0o600); err != nil {
				t.Fatal(err)
			}
			if _, err := nodeKeyIn(t, dir); err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("NodeKey over a %s node.key = %v, want an error naming %s", name, err, path)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, body) {
				t.Errorf("the %s node.key was not left in place (%v)", name, err)
			}
		})
	}
}

// TestDroppedTallySurvivesReplay: a round evicted at the cap before its
// seal drops the contributions it accepted, and so does an open round an
// operator forgets; a sealed round forgotten drops nothing. The tenant's
// tally counts the drops, and a restart that replays the WAL — where each
// drop is a RoundForgotten after the round's accept records — counts them
// again.
func TestDroppedTallySurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	open := func() (*service.RoundManager, *service.Registry, *Store) {
		reg := service.NewRegistry(64)
		tn, err := reg.AddTenant(service.TenantConfig{
			Name:         testTenant,
			Dim:          4,
			Workers:      1,
			MaxRounds:    2,
			EvictAtCap:   true,
			TicketPolicy: &service.TicketConfig{MaxTickets: 8, TTL: 3600, Now: testClock},
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenConfig(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(reg); err != nil {
			t.Fatal(err)
		}
		return tn.Manager(), reg, s
	}
	m, reg, s := open()
	tk := liveTicket()
	grantTicket(t, reg, tk)
	ingestFrame(t, reg, orderRaws(3, 4, 1, &tk.Key))
	ingestFrame(t, reg, orderRaws(2, 4, 2, &tk.Key))
	if err := m.Seal(2); err != nil {
		t.Fatal(err)
	}
	// Round 3 finds the tenant at its cap; round 1 is the one open round.
	ingestFrame(t, reg, orderRaws(1, 4, 3, &tk.Key))
	if _, held := m.Lookup(1); held || m.Dropped() != 3 {
		t.Fatalf("after the eviction: round 1 held %v, dropped %d; want evicted and 3", held, m.Dropped())
	}
	m.Forget(2)
	m.Forget(3)
	if got := m.Dropped(); got != 4 {
		t.Fatalf("dropped %d after forgetting sealed round 2 and open round 3, want 4", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	again, _, sB := open()
	defer sB.Close()
	if got := again.Dropped(); got != 4 {
		t.Fatalf("replayed WAL drops %d, the live tenant dropped 4", got)
	}
}
