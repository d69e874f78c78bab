package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"glimmers/internal/audit"
	"glimmers/internal/fixed"
	"glimmers/internal/service"
)

// Store owns one state directory:
//
//	snapshot   — the latest full registry image (written atomically via
//	             rename), embedding the WAL generation that follows it
//	wal.<gen>  — the mutations since that snapshot
//
// Recover loads snapshot + WAL into a registry and attaches the store as
// the registry's journal; Snapshot rotates: new image, new WAL
// generation, old generation deleted. Store implements service.Journal —
// every service.Record the service layer appends becomes one WAL record,
// staged and group-committed by a background flusher (see
// groupcommit.go).
//
// Durability classes: a record whose kind is a barrier
// (service.RecordKind.Barrier: sealed, closed, ticket granted) returns
// only after it is written and fsynced. Every other record is
// fire-and-forget: staged in memory and flushed within
// Config.FlushBytes/FlushInterval, so a crash can lose that bounded tail
// (recovery restores the exact flushed prefix; see
// internal/sim.RunCrashRecovery).
//
// Concurrency: the journal side is safe for concurrent use. Recover and
// Snapshot require quiesced ingest — a mutation concurrent with the
// export would land in both the snapshot and the next WAL generation
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
	f      *os.File
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
	Records        int   // intact WAL records replayed
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

// Recover loads the snapshot (if any) and replays the WAL into reg,
// truncates any torn tail, opens the WAL for appending, starts the
// background flusher, and attaches the store as reg's journal. The
// registry must already hold its tenants (same configs as when the
// state was exported) and must not yet be serving traffic.
func (s *Store) Recover(reg *service.Registry) (RecoverStats, error) {
	var stats RecoverStats

	if data, err := os.ReadFile(s.snapshotPath()); err == nil {
		st, gen, err := DecodeSnapshot(data)
		if err != nil {
			return stats, err
		}
		if err := reg.RestoreState(st); err != nil {
			return stats, err
		}
		s.gen = gen
		stats.SnapshotLoaded = true
		s.audit("snapshot-loaded", "generation=%d tenants=%d bytes=%d", gen, len(st.Tenants), len(data))
	} else if !os.IsNotExist(err) {
		return stats, fmt.Errorf("durable: %w", err)
	}
	stats.Generation = s.gen

	f, err := os.OpenFile(s.walPath(s.gen), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return stats, fmt.Errorf("durable: %w", err)
	}
	data, err := os.ReadFile(s.walPath(s.gen))
	if err != nil {
		f.Close()
		return stats, fmt.Errorf("durable: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write(walMagic); err != nil {
			f.Close()
			return stats, fmt.Errorf("durable: %w", err)
		}
	} else {
		good, torn := walkRecords(data, func(rec service.Record) {
			if reg.Apply(rec) != nil {
				stats.ReplayErrors++
			}
			stats.Records++
		})
		if torn {
			if good < int64(len(walMagic)) {
				// The header itself is damaged; start the file over.
				if err := f.Truncate(0); err != nil {
					f.Close()
					return stats, fmt.Errorf("durable: %w", err)
				}
				if _, err := f.WriteAt(walMagic, 0); err != nil {
					f.Close()
					return stats, fmt.Errorf("durable: %w", err)
				}
				good = int64(len(walMagic))
			} else if err := f.Truncate(good); err != nil {
				f.Close()
				return stats, fmt.Errorf("durable: %w", err)
			}
			stats.TruncatedBytes = int64(len(data)) - good
			s.audit("wal-truncated", "generation=%d offset=%d dropped=%d", s.gen, good, stats.TruncatedBytes)
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return stats, fmt.Errorf("durable: %w", err)
		}
	}
	s.audit("wal-replayed", "generation=%d records=%d replay_errors=%d", s.gen, stats.Records, stats.ReplayErrors)

	s.mu.Lock()
	s.f = f
	s.mu.Unlock()
	s.startFlusher()
	s.removeOldGenerations()
	reg.SetJournal(s)
	return stats, nil
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
	data := EncodeSnapshot(st, next)

	tmp := s.snapshotPath() + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := tf.Write(data); err == nil {
		err = tf.Sync()
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}
	if err := os.Rename(tmp, s.snapshotPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: %w", err)
	}

	nf, err := os.OpenFile(s.walPath(next), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if _, err := nf.Write(walMagic); err != nil {
		nf.Close()
		return fmt.Errorf("durable: %w", err)
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f = nf
	prev := s.gen
	s.gen = next
	// Superseded by the image: drop the staged tail and settle every
	// sequence watermark so no barrier can wait on pre-rotation records.
	s.staged = s.staged[:0]
	if cap(s.staged) > s.maxRetained {
		s.staged = nil
	}
	s.flushedSeq, s.syncedSeq = s.seq, s.seq
	s.synced.Broadcast()
	os.Remove(s.walPath(prev))
	s.audit("snapshot-taken", "generation=%d tenants=%d bytes=%d", next, len(st.Tenants), len(data))
	return nil
}

// removeOldGenerations deletes wal files older than the current
// generation — leftovers from a crash between snapshot rename and
// old-WAL removal.
func (s *Store) removeOldGenerations() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal.") {
			continue
		}
		gen, err := strconv.ParseUint(name[len("wal."):], 10, 64)
		if err == nil && gen < s.gen {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
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
	s.ioMu.Lock()
	defer s.ioMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return s.err
	}
	var err error
	if s.err == nil && len(s.staged) > 0 {
		if _, werr := s.f.Write(s.staged); werr != nil {
			err = werr
		} else {
			s.stats.Writes++
			s.stats.BytesWritten += uint64(len(s.staged))
		}
		s.staged = s.staged[:0]
	}
	if err == nil {
		if serr := s.f.Sync(); serr != nil {
			err = serr
		} else if s.err == nil {
			s.stats.Syncs++
		}
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	s.flushedSeq, s.syncedSeq = s.seq, s.seq
	s.synced.Broadcast()
	if s.err == nil && err != nil {
		s.err = fmt.Errorf("durable: %w", err)
	}
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
	encodeRecord(e.w, rec)
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
