package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/service"
)

// opLog is a fileSystem that performs every operation through osFS and
// records, in order, each one that changes the disk: creates, writes,
// syncs, renames, directory syncs and removals (of a file that was
// there).
type opLog struct {
	mu  sync.Mutex // the flusher writes the WAL from its own goroutine
	ops []string
}

func (l *opLog) add(op string, names ...string) {
	for _, n := range names {
		op += " " + filepath.Base(n)
	}
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

// take returns the operations recorded since the last take.
func (l *opLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ops := l.ops
	l.ops = nil
	return ops
}

func (l *opLog) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := osFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if flag&os.O_CREATE != 0 {
		l.add("create", name)
	}
	return &loggedFile{file: f, name: name, log: l}, nil
}

func (l *opLog) Rename(from, to string) error {
	l.add("rename", from, to)
	return osFS{}.Rename(from, to)
}

func (l *opLog) Remove(name string) error {
	err := osFS{}.Remove(name)
	if err == nil {
		l.add("remove", name)
	}
	return err
}

func (l *opLog) SyncDir(dir string) error {
	l.add("syncdir")
	return osFS{}.SyncDir(dir)
}

type loggedFile struct {
	file
	name string
	log  *opLog
}

func (f *loggedFile) Write(p []byte) (int, error) {
	f.log.add("write", f.name)
	return f.file.Write(p)
}

func (f *loggedFile) Sync() error {
	f.log.add("sync", f.name)
	return f.file.Sync()
}

// errInjected is the failure faultFS injects.
var errInjected = errors.New("injected disk failure")

// faultFS performs every operation through osFS but fails one, as a full
// or dying disk would: the first operation spelled fail (as opLog spells
// it), once the one spelled after has happened ("" fails it at once).
type faultFS struct {
	osFS
	fail, after string
	armed       bool
	fired       bool
}

func (f *faultFS) check(op string) error {
	if f.armed && !f.fired && op == f.fail {
		f.fired = true
		return errInjected
	}
	f.armed = f.armed || op == f.after
	return nil
}

func (f *faultFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	if flag&os.O_CREATE != 0 {
		if err := f.check("create " + filepath.Base(name)); err != nil {
			return nil, err
		}
	}
	return f.osFS.OpenFile(name, flag, perm)
}

func (f *faultFS) Rename(from, to string) error {
	if err := f.check("rename " + filepath.Base(from) + " " + filepath.Base(to)); err != nil {
		return err
	}
	return f.osFS.Rename(from, to)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.check("syncdir"); err != nil {
		return err
	}
	return f.osFS.SyncDir(dir)
}

// roundOf returns the exported state of round in reg's test tenant.
func roundOf(reg *service.Registry, round uint64) (service.RoundState, bool) {
	for _, ts := range reg.ExportState().Tenants {
		for _, rs := range ts.Rounds {
			if ts.Name == testTenant && rs.Round == round {
				return rs, true
			}
		}
	}
	return service.RoundState{}, false
}

// liveTicket is the ticket the tests' frames are sealed under.
func liveTicket() service.TicketState {
	return service.TicketState{ID: 7, Key: sessionKey(0xA7), RoundFirst: 1, RoundLast: 1 << 32, ExpiresUnix: 1 << 62}
}

// ingestFrame submits raws to reg as one frame, which must be accepted
// whole.
func ingestFrame(t *testing.T, reg *service.Registry, raws [][]byte) {
	t.Helper()
	if _, errs := reg.IngestBatch(raws); errors.Join(errs...) != nil {
		t.Fatalf("frame refused: %v", errors.Join(errs...))
	}
}

// TestFailedRotationKeepsAckedSeal: a Snapshot whose rotation fails part
// way — the directory sync after the image's rename, or the next WAL's
// create — must not cost a record acked after it. A frame ingested and
// its round sealed once Snapshot has returned the failure come back from
// Recover sealed, with the exact sum.
func TestFailedRotationKeepsAckedSeal(t *testing.T) {
	for _, tc := range []struct{ name, fail, after string }{
		{"directory sync after the image rename", "syncdir", "rename snapshot.tmp snapshot"},
		{"next WAL create", "create wal.2", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg, s, _ := recoverInto(t, dir)
			tk := liveTicket()
			grantTicket(t, reg, tk)
			tn, _ := reg.Tenant(testTenant)
			tn.Manager().Round(1)
			s.fs = &faultFS{fail: tc.fail, after: tc.after, armed: tc.after == ""}
			if err := s.Snapshot(reg); !errors.Is(err, errInjected) {
				t.Fatalf("Snapshot: err = %v, want the injected failure", err)
			}

			ingestFrame(t, reg, orderRaws(3, 4, 2, &tk.Key))
			if err := tn.Manager().Seal(2); err != nil {
				t.Fatal(err)
			}
			want, _ := roundOf(reg, 2)
			s.Abandon()

			regB, sB, _ := recoverInto(t, dir)
			defer sB.Close()
			if got, ok := roundOf(regB, 2); !ok || got.Phase != service.RoundPhaseSealed || !reflect.DeepEqual(got, want) {
				t.Fatalf("round 2 after recovery = %+v (found %v), want sealed %+v", got, ok, want)
			}
		})
	}
}

// TestRotateOrdersDirectorySyncs: every step of a rotation is durable
// before the next one starts. The staged tail is written to the closing
// WAL and synced; the next WAL is created, given its magic, synced and its
// entry synced; the fold syncs each WAL it reads; the image is synced,
// renamed and its entry synced; only then does the WAL the image holds
// go. Recover writes no WAL it replays: it syncs each one, torn tail or
// torn header alike, and makes a fresh generation the same way Snapshot
// does.
func TestRotateOrdersDirectorySyncs(t *testing.T) {
	dir := t.TempDir()
	log := &opLog{}
	open := func() (*service.Registry, *Store) {
		t.Helper()
		reg := newTestRegistry(t)
		s, err := OpenConfig(dir, manualConfig)
		if err != nil {
			t.Fatal(err)
		}
		s.fs = log
		if _, err := s.Recover(reg); err != nil {
			t.Fatal(err)
		}
		return reg, s
	}
	want := func(step string, ops ...string) {
		t.Helper()
		if got := log.take(); !reflect.DeepEqual(got, ops) {
			t.Errorf("%s:\n got %q\nwant %q", step, got, ops)
		}
	}
	newWAL := func(name string) []string {
		return []string{"create " + name, "write " + name, "sync " + name, "syncdir"}
	}

	reg, s := open()
	want("first recovery", newWAL("wal.1")...)

	tn, _ := reg.Tenant(testTenant)
	tn.Manager().Round(1)
	if err := s.Snapshot(reg); err != nil {
		t.Fatal(err)
	}
	want("snapshot", slices.Concat([]string{"write wal.1", "sync wal.1"}, newWAL("wal.2"), []string{
		"sync wal.1", // the fold
		"create snapshot.tmp", "write snapshot.tmp", "sync snapshot.tmp",
		"rename snapshot.tmp snapshot", "syncdir", "remove wal.1"})...)

	tn.Manager().Round(2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	log.take()
	walPath := filepath.Join(dir, "wal.2")
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x00, 0x40, 0xDE})
	f.Close()
	_, s = open()
	want("torn tail", append([]string{"sync wal.2"}, newWAL("wal.3")...)...)
	s.Close()

	log.take()
	if err := os.WriteFile(walPath, []byte("not a WAL header"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, s = open()
	// Two generations replayed: a chain, which Recover folds into an image
	// before it returns.
	want("torn header", slices.Concat([]string{"sync wal.2", "sync wal.3"}, newWAL("wal.4"),
		[]string{"sync wal.4"}, newWAL("wal.5"), []string{
			"sync wal.2", "sync wal.3", "sync wal.4",
			"create snapshot.tmp", "write snapshot.tmp", "sync snapshot.tmp",
			"rename snapshot.tmp snapshot", "syncdir", "remove wal.2", "remove wal.3", "remove wal.4"})...)
	s.Close()
}

// TestNodeKeyCreateOrder: node.key is made the way an image is — its tmp
// created, written and synced, renamed into place, the directory synced —
// and read back later without a write.
func TestNodeKeyCreateOrder(t *testing.T) {
	s, err := OpenConfig(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	log := &opLog{}
	s.fs = log
	for _, step := range []struct {
		name string
		ops  []string
	}{
		{"first NodeKey", []string{"create node.key.tmp", "write node.key.tmp", "sync node.key.tmp",
			"rename node.key.tmp node.key", "syncdir"}},
		{"second NodeKey", nil},
	} {
		if _, err := s.NodeKey(); err != nil {
			t.Fatal(err)
		}
		if got := log.take(); !reflect.DeepEqual(got, step.ops) {
			t.Errorf("%s:\n got %q\nwant %q", step.name, got, step.ops)
		}
	}
}

// imageRecords decodes the records of the image at path.
func imageRecords(t *testing.T, path string) []service.Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []service.Record
	if _, err := walk(bytes.NewReader(data), int64(len(data)), make([]byte, len(snapshotMagic)+8), snapshotMagic, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		recs = append(recs, rec)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// applyJournaled applies recs to reg and journals them through s, as a
// live mutation is both: an image holds what reached the WAL.
func applyJournaled(t *testing.T, reg *service.Registry, s *Store, recs []service.Record) {
	t.Helper()
	for _, rec := range recs {
		if err := reg.Apply(rec); err != nil {
			t.Fatal(err)
		}
		s.Append(rec)
	}
}

// snapshotAndRecover writes regA's image through sA, recovers the
// directory into a fresh registry, and requires that both the image on
// disk and the recovered registry's export match regA's export byte for
// byte.
func snapshotAndRecover(t *testing.T, dir string, regA *service.Registry, sA *Store) *service.Registry {
	t.Helper()
	if err := sA.Snapshot(regA); err != nil {
		t.Fatal(err)
	}
	if err := sA.Close(); err != nil {
		t.Fatal(err)
	}
	want := encodeImage(regA.Records(), sA.gen)
	if onDisk, err := os.ReadFile(filepath.Join(dir, "snapshot")); err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("image on disk differs from the export's (err %v)", err)
	}
	regB, sB, stats := recoverInto(t, dir)
	sB.Close()
	if !stats.SnapshotLoaded || stats.Records != 0 {
		t.Fatalf("stats = %+v, want the image alone", stats)
	}
	if got := encodeImage(regB.Records(), sA.gen); !bytes.Equal(got, want) {
		t.Fatalf("recovered export differs:\n got %x\nwant %x", got, want)
	}
	return regB
}

// TestImageRoundTripsThroughRecover: export → image → Recover → export is
// byte-identical, for testState and for a registry recovered from the
// golden WAL.
func TestImageRoundTripsThroughRecover(t *testing.T) {
	t.Run("testState", func(t *testing.T) {
		dir := t.TempDir()
		regA, sA, _ := recoverInto(t, dir)
		applyJournaled(t, regA, sA, testState(t).Records())
		snapshotAndRecover(t, dir, regA, sA)
	})
	t.Run("golden WAL", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal.1"), readGolden(t, "wal.hex"), 0o644); err != nil {
			t.Fatal(err)
		}
		regA, sA, stats := recoverInto(t, dir)
		if stats.Records != 12 || stats.ReplayErrors != 0 {
			t.Fatalf("golden WAL stats = %+v", stats)
		}
		checkReplayedState(t, snapshotAndRecover(t, dir, regA, sA))
	})
}

// TestImageCarriesLargeCounterAndWideRound: refusal counters far past any
// one frame's, and a round whose digests span several image records,
// snapshot and recover exactly.
func TestImageCarriesLargeCounterAndWideRound(t *testing.T) {
	defer func(n int) { imageDigests = n }(imageDigests)
	imageDigests = 2
	const big = 1 << 23
	digests := [][32]byte{digest(1), digest(2), digest(3), digest(4), digest(5)}
	dir := t.TempDir()
	regA, sA, _ := recoverInto(t, dir)
	applyJournaled(t, regA, sA, []service.Record{
		{Kind: service.Rejected, Level: service.LevelRegistry, Count: big},
		{Kind: service.Rejected, Tenant: testTenant, Level: service.LevelManager, Count: big + 1},
		roundRecord(service.RoundCreated, 1),
		acceptRecord(1, digests, fixed.Vector{1, 2, 3, 4}),
		{Kind: service.Rejected, Tenant: testTenant, Round: 1, Level: service.LevelRound, Count: big + 2},
	})
	regB := snapshotAndRecover(t, dir, regA, sA)

	var accepts [][][32]byte
	for _, rec := range imageRecords(t, filepath.Join(dir, "snapshot")) {
		if rec.Kind == service.BatchAccepted {
			accepts = append(accepts, rec.Digests)
		}
	}
	if len(accepts) != 3 || len(accepts[0]) != 2 || len(accepts[2]) != 1 {
		t.Fatalf("image splits the round's %d digests as %d records %v, want 2+2+1", len(digests), len(accepts), accepts)
	}
	tn, _ := regB.Tenant(testTenant)
	p, ok := tn.Manager().Lookup(1)
	if !ok {
		t.Fatal("round 1 not recovered")
	}
	got := [5]int{regB.Rejected(), tn.Manager().Rejected(), p.Rejected(), p.Count(), int(p.Sum()[3])}
	if want := [5]int{big, big + 1, big + 2, len(digests), 4}; got != want {
		t.Fatalf("recovered counters, count and sum lane %v, want %v", got, want)
	}
}
