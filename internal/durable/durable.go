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
// every mutation the service layer reports becomes one appended record,
// staged and group-committed by a background flusher (see
// groupcommit.go).
//
// Durability classes: RoundSealed, RoundClosed, and TicketGranted are
// barriers — the call returns only after the record is written and
// fsynced. Every other journal hook is fire-and-forget: staged in
// memory and flushed within Config.FlushBytes/FlushInterval, so a crash
// can lose that bounded tail (recovery restores the exact flushed
// prefix; see internal/sim.RunCrashRecovery).
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

	rj := reg.ReplayJournal(func(error) { stats.ReplayErrors++ })
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
		good, torn := walkFrames(data, func(payload []byte) error {
			if err := applyRecord(payload, rj); err != nil {
				return err
			}
			stats.Records++
			return nil
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

// Store implements service.Journal: one appended record per mutation.
// Barrier records (sealed/closed/ticket-granted) return only once
// durable; the rest are staged fire-and-forget.

func (s *Store) RoundCreated(tenant string, round uint64) {
	// Journaled under the round manager's lock (round admission), so it
	// must stay async — and it can: a lost RoundCreated only loses the
	// (empty) round it created, which recovery treats as never admitted.
	e := getEncoder()
	encodeRound(e.w, recRoundCreated, tenant, round)
	s.stage(false, e)
}

func (s *Store) RoundSealed(tenant string, round uint64) {
	// Barrier: the fleet plane ships partial seals and operators read
	// sealed sums the moment Seal returns, so the seal record — and,
	// because staging preserves order, every accept record before it —
	// must be durable first.
	e := getEncoder()
	encodeRound(e.w, recRoundSealed, tenant, round)
	s.stage(true, e)
}

func (s *Store) RoundClosed(tenant string, round uint64) {
	// Barrier: a closed round's sum has been consumed downstream.
	e := getEncoder()
	encodeRound(e.w, recRoundClosed, tenant, round)
	s.stage(true, e)
}

func (s *Store) RoundForgotten(tenant string, round uint64) {
	// Journaled under the manager's lock on the eviction path: async.
	e := getEncoder()
	encodeRound(e.w, recRoundForgotten, tenant, round)
	s.stage(false, e)
}

func (s *Store) BatchAccepted(tenant string, round uint64, digests [][32]byte, delta fixed.Vector) {
	e := getEncoder()
	encodeAccepted(e.w, tenant, round, digests, delta)
	s.stage(false, e)
}

func (s *Store) DropoutCorrected(tenant string, round uint64, mask fixed.Vector) {
	e := getEncoder()
	encodeDropout(e.w, tenant, round, mask)
	s.stage(false, e)
}

func (s *Store) Rejected(tenant string, round uint64, level service.RejectLevel, n int) {
	e := getEncoder()
	encodeRejected(e.w, tenant, round, level, n)
	s.stage(false, e)
}

func (s *Store) TicketGranted(tenant string, tk service.TicketState) {
	// Barrier: the grant reply hands the device a session key; if the
	// record were lost, every post-restart contribution under that
	// ticket would be refused and the device forced back through the
	// asymmetric exchange — the thundering herd durability exists to
	// prevent.
	e := getEncoder()
	encodeTicketGranted(e.w, tenant, tk)
	s.stage(true, e)
}

func (s *Store) TicketEvicted(tenant string, id uint64) {
	e := getEncoder()
	encodeTicketEvicted(e.w, tenant, id)
	s.stage(false, e)
}
