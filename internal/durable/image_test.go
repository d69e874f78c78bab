package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/service"
)

// opLog is a fileSystem that performs every operation through osFS and
// records, in order, each one that changes the disk: creates, writes,
// syncs, truncations, renames, directory syncs and removals (of a file
// that was there).
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

func (f *loggedFile) Truncate(size int64) error {
	f.log.add("truncate", f.name)
	return f.file.Truncate(size)
}

// TestRotateOrdersDirectorySyncs: every step of a rotation is durable
// before the next one starts. The image is synced, renamed and its
// directory entry synced; the next WAL is created, given its magic, synced
// and its entry synced; only then does the superseded WAL go. Recover's
// first WAL, and a WAL whose header it cannot read, are made the same
// way, and a torn tail's truncation is synced.
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
	want("snapshot", append([]string{
		"create snapshot.tmp", "write snapshot.tmp", "sync snapshot.tmp",
		"rename snapshot.tmp snapshot", "syncdir"},
		append(newWAL("wal.2"), "remove wal.1")...)...)

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
	want("torn tail", "truncate wal.2", "sync wal.2")
	s.Close()

	log.take()
	if err := os.WriteFile(walPath, []byte("not a WAL header"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, s = open()
	want("torn header", newWAL("wal.2")...)
	s.Close()
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
	want := encodeImage(regA.ExportState(), 2)
	if onDisk, err := os.ReadFile(filepath.Join(dir, "snapshot")); err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("image on disk differs from the export's (err %v)", err)
	}
	regB, sB, stats := recoverInto(t, dir)
	sB.Close()
	if !stats.SnapshotLoaded || stats.Records != 0 {
		t.Fatalf("stats = %+v, want the image alone", stats)
	}
	if got := encodeImage(regB.ExportState(), 2); !bytes.Equal(got, want) {
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
		if err := regA.RestoreState(testState(t)); err != nil {
			t.Fatal(err)
		}
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
	for _, rec := range []service.Record{
		{Kind: service.Rejected, Level: service.LevelRegistry, Count: big},
		{Kind: service.Rejected, Tenant: testTenant, Level: service.LevelManager, Count: big + 1},
		roundRecord(service.RoundCreated, 1),
		acceptRecord(1, digests, fixed.Vector{1, 2, 3, 4}),
		{Kind: service.Rejected, Tenant: testTenant, Round: 1, Level: service.LevelRound, Count: big + 2},
	} {
		if err := regA.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
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
