package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"glimmers/internal/audit"
	"glimmers/internal/fixed"
	"glimmers/internal/service"
)

// Store owns one state directory:
//
//	snapshot   — the latest image: the registry as the records that
//	             rebuild it (see writeImage), followed by the generation
//	             of the WAL that continues it
//	wal.<gen>  — the records since that image
//
// Recover streams both files through Registry.Apply and attaches the
// store as the registry's journal; Snapshot writes a new image and
// rotates to the next WAL generation (see rotate for the order that
// survives a power loss). Store implements service.Journal — every
// service.Record the service layer appends becomes one WAL record,
// staged and group-committed by a background flusher; groupcommit.go
// states which records are durable when Append returns.
//
// Concurrency: the journal side is safe for concurrent use. Recover and
// Snapshot require quiesced ingest — a mutation concurrent with the
// export would land in both the image and the next WAL generation
// and double-apply on the next recovery. glimmerd snapshots after
// draining its listener; the sim between waves.
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
	// rotation) so s.mu is never held across a syscall.
	ioMu sync.Mutex

	// Double-buffered staging: journal calls append frames to staged;
	// the flusher swaps staged with spare and writes the whole segment.
	staged []byte
	spare  []byte
	// Record sequence numbers: seq counts staged records, flushedSeq the
	// prefix that reached write(2), syncedSeq the prefix known durable.
	// wantSync is the highest barrier still waiting for an fsync.
	seq        uint64
	flushedSeq uint64
	syncedSeq  uint64
	wantSync   uint64

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
	Generation     uint64
	Records        int   // intact WAL records replayed; an image's are not counted
	TruncatedBytes int64 // torn tail removed, 0 for a clean file
	ReplayErrors   int   // records naming state the registry no longer has, or of another dimension
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

// Recover applies the image (if any), then replays the WAL that follows
// it, into reg; truncates a torn WAL tail; opens the WAL for appending,
// starts the background flusher, and attaches the store as reg's journal.
// Both files are streamed. An image that does not load whole fails
// Recover with ErrBadSnapshot; a WAL record Apply refuses is counted in
// ReplayErrors. The registry must already hold its tenants (same configs
// as when the state was exported) and must not yet be serving traffic.
func (s *Store) Recover(reg *service.Registry) (RecoverStats, error) {
	var stats RecoverStats
	img, size, err := s.open(s.snapshotPath())
	if err == nil {
		s.gen, err = loadImage(reg, img, size)
		img.Close()
		if err != nil {
			return stats, err
		}
		stats.SnapshotLoaded = true
		s.audit("snapshot-loaded", "generation=%d bytes=%d", s.gen, size)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return stats, fmt.Errorf("durable: %w", err)
	}
	stats.Generation = s.gen

	f, err := s.replayWAL(reg, &stats)
	if err == nil && f == nil {
		f, err = s.rotate(nil, s.gen)
	} else if err == nil {
		s.fs.Remove(s.walPath(s.gen - 1)) // a crash inside rotate leaves it
	}
	if err != nil {
		return stats, fmt.Errorf("durable: %w", err)
	}
	s.audit("wal-replayed", "generation=%d records=%d replay_errors=%d", s.gen, stats.Records, stats.ReplayErrors)

	s.mu.Lock()
	s.f = f
	s.mu.Unlock()
	s.startFlusher()
	reg.SetJournal(s)
	return stats, nil
}

// replayWAL applies the intact records of the current WAL to reg and cuts
// a torn tail, syncing the cut. It returns the WAL open for appending, or
// nil when rotate must make one: the file is missing, empty, or its
// header is damaged.
func (s *Store) replayWAL(reg *service.Registry, stats *RecoverStats) (file, error) {
	f, size, err := s.open(s.walPath(s.gen))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	good, err := walk(f, size, make([]byte, len(walMagic)), walMagic, func(payload []byte) error {
		rec, err := decodeRecord(payload)
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
		err, stats.TruncatedBytes = nil, size-good
		if stats.TruncatedBytes > 0 {
			s.audit("wal-truncated", "generation=%d offset=%d dropped=%d", s.gen, good, stats.TruncatedBytes)
		}
		if good > 0 {
			if err = f.Truncate(good); err == nil {
				err = f.Sync()
			}
		}
	}
	if err != nil || good == 0 {
		f.Close()
		return nil, err
	}
	return f, nil
}

// open opens an existing file for reading and appending, with its size.
func (s *Store) open(path string) (file, int64, error) {
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
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

// Snapshot writes a fresh registry image and rotates the WAL. Requires
// quiesced ingest (see the type comment). Any write-path error since the
// last snapshot surfaces here. Records still staged when the rotation
// happens are simply discarded: the mutations they describe happened
// before the export, so the image already contains them.
func (s *Store) Snapshot(reg *service.Registry) error {
	// Export outside s.mu: the export takes service locks, and journal
	// appends (which hold s.mu) happen under some of them.
	st := reg.ExportState()

	// Runs after the unlocks below: a store that was never Recovered
	// (or whose flusher died with the old file) still ends up with a
	// live flusher for the new generation.
	defer s.startFlusher()

	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	next := s.gen + 1
	nf, err := s.rotate(&st, next)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f = nf
	s.gen = next
	// Superseded by the image: drop the staged tail and settle every
	// sequence watermark so no barrier can wait on pre-rotation records.
	s.staged = s.staged[:0]
	if cap(s.staged) > s.maxRetained {
		s.staged = nil
	}
	s.flushedSeq, s.syncedSeq = s.seq, s.seq
	s.synced.Broadcast()
	s.audit("snapshot-taken", "generation=%d tenants=%d", next, len(st.Tenants))
	return nil
}

// rotate moves the directory to WAL generation next and returns that
// WAL, open for appending. Each step is durable before the next one
// starts, so a power loss at any point leaves a directory Recover
// reads whole:
//
//  1. with an image (st != nil): write and fsync snapshot.tmp, rename it
//     to snapshot, fsync the directory;
//  2. create wal.<next>, write its magic, fsync it, fsync the directory;
//  3. only then remove wal.<next-1>.
func (s *Store) rotate(st *service.RegistryState, next uint64) (file, error) {
	if st != nil {
		tmp := s.snapshotPath() + ".tmp"
		img, err := s.create(tmp, func(w io.Writer) error { return writeImage(w, *st, next) })
		if err == nil {
			if err = img.Close(); err == nil {
				err = s.fs.Rename(tmp, s.snapshotPath())
			}
		}
		if err == nil {
			err = s.fs.SyncDir(s.dir)
		}
		if err != nil {
			s.fs.Remove(tmp)
			return nil, err
		}
	}
	f, err := s.create(s.walPath(next), func(w io.Writer) error {
		_, err := io.WriteString(w, walMagic)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		f.Close()
		return nil, err
	}
	s.fs.Remove(s.walPath(next - 1))
	return f, nil
}

// create writes a new file at path through write and fsyncs it.
func (s *Store) create(path string, write func(io.Writer) error) (file, error) {
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err = write(f); err == nil {
		err = f.Sync()
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
	s.flushedSeq, s.syncedSeq = s.seq, s.seq
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
	Truncate(size int64) error
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
