package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"glimmers/internal/audit"
	"glimmers/internal/fixed"
	"glimmers/internal/service"
	"glimmers/internal/xcrypto"
)

// Store owns one state directory:
//
//	snapshot   — the latest image: the registry as the records that
//	             rebuild it (see writeImage), and the first WAL
//	             generation it does not hold
//	wal.<gen>  — the records since, one file per generation
//	node.key   — a fleet node's sealing key (NodeKey), mode 0600
//
// The directory obeys one rule: an image names the first generation it
// does not hold, and every WAL from that generation on is replayed, in
// order, each up to its first tear. A WAL is written by one life of the
// store and never reopened for writing: Snapshot cuts it at a record
// boundary, and Recover starts the next generation. A failure or a power
// loss at any step of either leaves a directory that recovers every acked
// record. Store implements service.Journal — every service.Record the
// service layer appends becomes one WAL record, staged and
// group-committed by a background flusher; groupcommit.go states which
// records are durable when Append returns.
//
// An image is what recovery would build: Recover folds the files into
// the registry it is handed, and Snapshot folds them into a blank
// registry of the same tenants, which it writes as the next image. The
// serving registry is never exported, so a record is in an image exactly
// when it is in a generation the image holds.
//
// Concurrency: the journal side and Snapshot are safe for concurrent use,
// ingest included. Recover runs before the registry serves traffic.
type Store struct {
	dir string
	cfg Config
	// maxRetained caps the capacity a recycled staging segment may keep
	// (4x the flush threshold, floored): one giant record or a burst
	// must not pin its high-water allocation for the store's lifetime.
	maxRetained int

	mu     sync.Mutex
	synced *sync.Cond // broadcast when syncedSeq advances or the WAL dies
	fs     fileSystem
	f      file
	gen    uint64
	err    error // first write-path failure; sticky, audited immediately

	// ioMu serializes disk I/O (flushes, the close drain, the snapshot
	// cut) so s.mu is never held across a syscall.
	ioMu sync.Mutex
	// snapMu serializes Snapshots: each folds from the image the last one
	// wrote.
	snapMu sync.Mutex

	// Double-buffered staging: journal calls append frames to staged;
	// the flusher swaps staged with spare and writes the whole segment.
	staged []byte
	spare  []byte
	// Record sequence numbers: seq counts staged records, syncedSeq the
	// prefix known durable. wantSync is the highest barrier still waiting
	// for an fsync.
	seq       uint64
	syncedSeq uint64
	wantSync  uint64

	// Background flusher lifecycle (see groupcommit.go).
	flusherOn bool
	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}

	stats    Stats
	auditLog *audit.Log
}

// RecoverStats describes what a recovery found.
type RecoverStats struct {
	SnapshotLoaded bool
	Generation     uint64 // the first WAL generation replayed: the image's, or 1
	Records        int    // intact WAL records replayed; an image's are not counted
	TruncatedBytes int64  // torn bytes skipped, over every generation replayed
	ReplayErrors   int    // records naming state the registry no longer has, or of another dimension
}

// OpenConfig creates or opens a state directory with the given group-commit
// tuning (glimmerd's -wal-flush-bytes / -wal-flush-interval flags; the zero
// Config is the default). No files are read until Recover.
func OpenConfig(dir string, cfg Config) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	cfg = cfg.withDefaults()
	s := &Store{
		dir:         dir,
		cfg:         cfg,
		fs:          osFS{},
		maxRetained: max(4*cfg.FlushBytes, maxRetainedStagingFloor),
		gen:         1,
		kick:        make(chan struct{}, 1),
	}
	s.synced = sync.NewCond(&s.mu)
	return s, nil
}

// SetAudit routes recovery, snapshot, and WAL-failure events to an audit
// log. Set before Recover.
func (s *Store) SetAudit(l *audit.Log) { s.auditLog = l }

func (s *Store) audit(event, format string, args ...any) {
	if s.auditLog != nil {
		s.auditLog.Append(event, format, args...)
	}
}

func (s *Store) snapshotPath() string { return filepath.Join(s.dir, "snapshot") }
func (s *Store) walPath(gen uint64) string {
	return filepath.Join(s.dir, "wal."+strconv.FormatUint(gen, 10))
}

// Recover folds the directory into reg, removes the WALs the image holds,
// starts a new generation and the flusher, and attaches the store as
// reg's journal. An image that does not load whole fails Recover with
// ErrBadSnapshot; a WAL record Apply refuses is counted in ReplayErrors.
// When it replayed more than one generation — lives that crashed with no
// snapshot between them — it snapshots before returning, so a node that
// keeps crashing keeps a bounded directory. The registry must already
// hold its tenants (same configs as at export) and must not yet be
// serving traffic.
func (s *Store) Recover(reg *service.Registry) (RecoverStats, error) {
	fd, err := s.fold(reg, math.MaxUint64)
	if err != nil {
		return fd.RecoverStats, err
	}
	if fd.SnapshotLoaded {
		s.audit("snapshot-loaded", "generation=%d bytes=%d", fd.Generation, fd.imageBytes)
	}
	s.removeHeld(fd.Generation)
	s.gen = fd.next
	f, err := s.newWAL(s.gen)
	if err != nil {
		return fd.RecoverStats, fmt.Errorf("durable: %w", err)
	}
	s.audit("wal-replayed", "generation=%d next=%d records=%d replay_errors=%d", fd.Generation, s.gen, fd.Records, fd.ReplayErrors)

	s.mu.Lock()
	s.f = f
	s.stats.WALBytes = fd.walBytes + uint64(len(walMagic))
	s.stats.ImageBytes = fd.imageBytes
	s.mu.Unlock()
	s.startFlusher()
	reg.SetJournal(s)
	if fd.wals > 1 {
		// The store serves on from the generation it just started either
		// way: a failed image costs a longer next recovery, nothing more.
		if err := s.Snapshot(reg); err != nil {
			s.audit("snapshot-failed", "generation=%d err=%v", s.gen, err)
		}
	}
	return fd.RecoverStats, nil
}

// folded is what one fold applied.
type folded struct {
	RecoverStats
	next       uint64 // the first generation not applied
	wals       int    // WAL generations applied
	walBytes   uint64 // their size on disk
	imageBytes uint64 // the image's size on disk (0 without one)
}

// fold applies the image, if any, and then each later WAL generation below
// below, in order, each up to its first tear, to reg; it ends early at the
// first generation that does not exist. Every file is streamed read-only,
// and every WAL is synced once read: a power loss must not take back what
// a later generation, or an image folded from it, builds on. An image that
// does not load whole is ErrBadSnapshot; a WAL record Apply refuses is
// counted in ReplayErrors.
func (s *Store) fold(reg *service.Registry, below uint64) (folded, error) {
	fd := folded{RecoverStats: RecoverStats{Generation: 1}}
	img, size, err := s.open(s.snapshotPath())
	if err == nil {
		fd.Generation, err = loadImage(reg, img, size)
		img.Close()
		if err != nil {
			return fd, err
		}
		fd.SnapshotLoaded, fd.imageBytes = true, uint64(size)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fd, fmt.Errorf("durable: %w", err)
	}
	for fd.next = fd.Generation; fd.next < below; fd.next++ {
		size, err := s.replayWAL(reg, fd.next, &fd.RecoverStats)
		if errors.Is(err, fs.ErrNotExist) {
			break
		}
		if err != nil {
			return fd, fmt.Errorf("durable: %w", err)
		}
		fd.wals++
		fd.walBytes += uint64(size)
	}
	return fd, nil
}

// replayWAL applies the records of wal.<gen> to reg up to its first tear,
// which it skips, syncs the file, and returns its size. A missing WAL is
// fs.ErrNotExist.
func (s *Store) replayWAL(reg *service.Registry, gen uint64, stats *RecoverStats) (int64, error) {
	f, size, err := s.open(s.walPath(gen))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var d recordDecoder
	good, err := walk(f, size, make([]byte, len(walMagic)), walMagic, func(payload []byte) error {
		rec, err := d.decode(payload)
		if err != nil {
			return err // a record that does not decode is a tear
		}
		if reg.Apply(rec) != nil {
			stats.ReplayErrors++
		}
		stats.Records++
		return nil
	})
	if errors.Is(err, errTorn) || errors.Is(err, errBadRecord) {
		err = nil
		if torn := size - good; torn > 0 {
			stats.TruncatedBytes += torn
			s.audit("wal-torn", "generation=%d offset=%d skipped=%d", gen, good, torn)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	return size, err
}

// open opens an existing file for reading, with its size.
func (s *Store) open(path string) (file, int64, error) {
	f, err := s.fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// removeHeld removes every WAL below generation gen: an image naming gen
// holds their records.
func (s *Store) removeHeld(gen uint64) {
	entries, _ := os.ReadDir(s.dir)
	for _, e := range entries {
		g, ok := strings.CutPrefix(e.Name(), "wal.")
		if n, err := strconv.ParseUint(g, 10, 64); ok && err == nil && n < gen {
			s.fs.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Snapshot cuts the WAL and writes the image of everything before the cut.
// reg names the tenants (their configurations); its state is not read.
// Any write-path error since the last snapshot surfaces here. Nothing
// staged is discarded, and each step is durable before the next: the
// staged tail is written to the closing WAL and synced; wal.<next> is made
// and appends move to it; the image and every WAL below next are folded
// into a blank registry of reg's tenants, whose image naming next is
// written to snapshot.tmp, synced, renamed, and the directory synced; only
// then go the WALs it holds. Ingest may run throughout: only the cut
// holds up the flusher. After a failure the store appends to the WAL it
// reached, which no image on disk holds.
func (s *Store) Snapshot(reg *service.Registry) error {
	blank := service.NewRegistry(0)
	for _, t := range reg.Tenants() {
		if _, err := blank.AddTenant(t.Config()); err != nil {
			return fmt.Errorf("durable: %w", err)
		}
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	next, held, err := s.cut()
	if err != nil {
		return err
	}
	fd, err := s.fold(blank, next)
	if err == nil && fd.next != next {
		err = fmt.Errorf("durable: %s missing", filepath.Base(s.walPath(fd.next)))
	}
	if err != nil {
		return err
	}
	st := blank.ExportState()
	tmp := s.snapshotPath() + ".tmp"
	img, err := s.create(tmp, s.snapshotPath(), 0o644, func(w io.Writer) error { return writeImage(w, st, next) })
	var fi os.FileInfo
	if err == nil {
		fi, err = img.Stat()
		err = errors.Join(err, img.Close())
	}
	if err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	s.removeHeld(next)
	s.mu.Lock()
	s.stats.WALBytes -= held
	s.stats.ImageBytes = uint64(fi.Size())
	s.mu.Unlock()
	s.audit("snapshot-taken", "generation=%d tenants=%d bytes=%d folded_wals=%d", next, len(st.Tenants), fi.Size(), fd.wals)
	return nil
}

// cut ends the live WAL at a record boundary: the staged tail is written
// to it and synced, wal.<next> is made, and appends move there. It
// returns next and the WAL bytes counted in the generations below it.
func (s *Store) cut() (next, held uint64, err error) {
	// Runs after the unlock below: a store that was never Recovered (or
	// whose flusher died with the old file) still ends up with a live
	// flusher for the new generation.
	defer s.startFlusher()

	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.flushLocked(true)
	if err := s.Err(); err != nil {
		return 0, 0, err
	}
	next = s.gen + 1
	f, err := s.newWAL(next)
	if err != nil {
		return 0, 0, fmt.Errorf("durable: %w", err)
	}
	s.mu.Lock()
	if s.f != nil {
		s.f.Close()
	}
	s.f, s.gen = f, next
	held = s.stats.WALBytes
	s.stats.WALBytes += uint64(len(walMagic))
	s.mu.Unlock()
	return next, held, nil
}

// newWAL creates wal.<gen>, the one place a WAL is opened for writing:
// its magic, then its directory entry, is fsynced before any record of it
// is acked and before any later generation exists.
func (s *Store) newWAL(gen uint64) (file, error) {
	return s.create(s.walPath(gen), s.walPath(gen), 0o644, func(w io.Writer) error {
		_, err := io.WriteString(w, walMagic)
		return err
	})
}

// NodeKey returns the key a fleet node signs its partial seals with: the
// one in node.key, or, before the file exists, a new key written there the
// way an image is — node.key.tmp (mode 0600; a leftover of a crashed
// attempt is truncated, never read), fsync, rename, directory fsync. The
// key is the node's identity to a coordinator that pinned it, so a file
// that does not parse is an error naming it, and is left in place.
func (s *Store) NodeKey() (*xcrypto.SigningKey, error) {
	path := filepath.Join(s.dir, "node.key")
	f, size, err := s.open(path)
	if err == nil {
		der := make([]byte, size)
		_, err = io.ReadFull(f, der)
		f.Close()
		var key *xcrypto.SigningKey
		if err == nil {
			key, err = xcrypto.ParseSigningKey(der)
		}
		if err != nil {
			return nil, fmt.Errorf("durable: %s: %w", path, err)
		}
		return key, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("durable: %w", err)
	}
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	der, err := key.Marshal()
	if err == nil {
		f, err = s.create(path+".tmp", path, 0o600, func(w io.Writer) error {
			_, err := w.Write(der)
			return err
		})
	}
	if err != nil {
		s.fs.Remove(path + ".tmp")
		return nil, fmt.Errorf("durable: %w", err)
	}
	f.Close()
	return key, nil
}

// create makes a new file durable under name: it writes path (created
// with perm) through write, fsyncs it, renames it to name if that
// differs, and fsyncs the directory.
func (s *Store) create(path, name string, perm os.FileMode, write func(io.Writer) error) (file, error) {
	f, err := s.fs.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return nil, err
	}
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if err == nil && path != name {
		err = s.fs.Rename(path, name)
	}
	if err == nil {
		err = s.fs.SyncDir(s.dir)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Err reports the first write-path failure, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close drains the staged records, syncs, and closes the WAL. The store
// must not be attached as a journal of a registry still serving traffic.
func (s *Store) Close() error {
	s.stopFlusher()
	s.flush(true)
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return s.err
	}
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = fmt.Errorf("durable: %w", err)
	}
	s.f = nil
	s.syncedSeq = s.seq
	s.synced.Broadcast()
	return s.err
}

// Abandon releases the store the way a process kill would: the flusher
// stops, records still staged are discarded unwritten, and the WAL fd is
// closed — no write, no fsync. It is the crash-simulation hook
// (internal/sim): what is on disk afterwards is exactly what had been
// flushed, so a recovery of the directory sees the flushed prefix and
// nothing more. Serving code shuts down with Close.
func (s *Store) Abandon() {
	s.mu.Lock()
	f := s.f
	s.f = nil // from here on stage and flush are no-ops, so no late tick writes
	s.staged = s.staged[:0]
	s.synced.Broadcast() // a barrier waiter must not hang on a dead process
	s.mu.Unlock()
	s.stopFlusher()
	if f != nil {
		s.ioMu.Lock() // a write already in flight lands, as it would in the kernel
		f.Close()
		s.ioMu.Unlock()
	}
}

// Append implements service.Journal: one staged record per mutation. A
// barrier kind (service.RecordKind.Barrier) returns only once durable;
// the rest are staged fire-and-forget.
func (s *Store) Append(rec service.Record) {
	e := getEncoder()
	encodeRecord(e, rec)
	s.stage(rec.Kind.Barrier(), e)
}

// BatchAccepted appends one accept watermark, and RoundSealed one seal
// barrier, outside any registry: the benchmark times the journal's two
// halves with them.
func (s *Store) BatchAccepted(tenant string, round uint64, digests [][32]byte, delta fixed.Vector) {
	s.Append(service.Record{Kind: service.BatchAccepted, Tenant: tenant, Round: round, Digests: digests, Lanes: delta})
}

func (s *Store) RoundSealed(tenant string, round uint64) {
	s.Append(service.Record{Kind: service.RoundSealed, Tenant: tenant, Round: round})
}

// fileSystem is the store's seam to the disk: every file it opens and
// every rename, removal and directory sync goes through it, so a test can
// record their order. osFS is the only implementation outside tests.
type fileSystem interface {
	OpenFile(name string, flag int, perm os.FileMode) (file, error)
	Rename(from, to string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// file is the part of *os.File the store uses.
type file interface {
	io.ReadWriteCloser
	Sync() error
	Stat() (os.FileInfo, error)
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (file, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a non-nil file holding a nil *os.File
	}
	return f, nil
}

func (osFS) Rename(from, to string) error { return os.Rename(from, to) }
func (osFS) Remove(name string) error     { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	return err
}
