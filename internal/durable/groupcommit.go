package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"glimmers/internal/wire"
)

// Group commit: the journal hot path stages framed records in memory and
// a background flusher coalesces them into large writes, so turning on
// -state-dir does not re-serialize the concurrent ingest pipeline behind
// one write(2) per record.
//
// The write path has three stages:
//
//  1. Encode outside every lock. Each journal call takes a pooled
//     recordEncoder, renders the record payload and its CRC frame
//     header, and only then touches the store.
//  2. Stage under a short critical section. The framed bytes are
//     appended to the active staging segment and the record is assigned
//     the next sequence number. Nothing is written to disk here.
//  3. Flush in the background. The flusher swaps the staging segment for
//     its spare (double buffering: callers keep staging into the spare
//     while the swapped-out segment is on its way to disk), issues one
//     write(2) for the whole segment, and fsyncs only when a barrier is
//     waiting.
//
// Barrier records (RoundSealed, RoundClosed, TicketGranted — and the
// Snapshot/Close lifecycle) block their caller until the record is
// written AND fsynced: a seal must be durable before the sealed sum is
// observable anywhere else. Everything else (BatchAccepted,
// Rejected, DropoutCorrected, RoundCreated, RoundForgotten,
// TicketEvicted) is fire-and-forget: a crash can lose the staged tail,
// bounded by FlushBytes/FlushInterval, and recovery then restores the
// exact flushed prefix — the same torn-tail contract the WAL always had,
// just with a slightly wider (and now tunable) window.

// Config tunes the group-commit write path. The zero value means
// defaults.
type Config struct {
	// FlushBytes is the staged-byte threshold that wakes the background
	// flusher early (the flusher also runs every FlushInterval). Staging
	// more than 4x this applies backpressure: the staging caller runs the
	// flush inline, bounding memory under a starved flusher.
	FlushBytes int
	// FlushInterval bounds how long an async record can sit staged
	// before it reaches the disk — the crash-loss window for
	// fire-and-forget records.
	FlushInterval time.Duration
}

// Defaults for Config's zero values: a quarter-MiB coalescing target and
// a single-digit-millisecond loss window.
const (
	DefaultFlushBytes    = 256 << 10
	DefaultFlushInterval = 2 * time.Millisecond
)

// maxRetainedStagingFloor is the minimum capacity cap for recycled
// staging segments; see Store.maxRetained.
const maxRetainedStagingFloor = 4 << 20

// maxRetainedRecord caps the capacity a pooled record encoder may keep:
// one giant BatchAccepted (a wide digest set) must not pin megabytes in
// the pool for the life of the process.
const maxRetainedRecord = 64 << 10

func (c Config) withDefaults() Config {
	if c.FlushBytes <= 0 {
		c.FlushBytes = DefaultFlushBytes
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = DefaultFlushInterval
	}
	return c
}

// Stats are the group-commit counters, exposed for drain reports and
// benchmarks. The coalescing ratio is Records/Writes; StagedPeak is the
// largest byte count that was ever exposed to a crash.
type Stats struct {
	Records      uint64 // journal records staged
	BytesWritten uint64 // framed bytes that reached write(2)
	Writes       uint64 // write(2) calls issued (flushes + close drain)
	Syncs        uint64 // fsyncs (barriers, Flush, Snapshot, Close)
	BarrierWaits uint64 // records that blocked for durability
	StagedPeak   int    // high-water mark of staged-but-unwritten bytes
}

// Stats returns a snapshot of the write-path counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// recordEncoder is the per-call scratch a journal append needs: the wire
// writer the payload renders into. Pooled so steady-state appends
// allocate nothing.
type recordEncoder struct {
	w *wire.Writer
}

var encoderPool = sync.Pool{New: func() any { return &recordEncoder{w: wire.NewWriter()} }}

func getEncoder() *recordEncoder {
	e := encoderPool.Get().(*recordEncoder)
	e.w.Reset()
	return e
}

func putEncoder(e *recordEncoder, payloadCap int) {
	if payloadCap > maxRetainedRecord {
		return // drop: a giant record must not pin its capacity
	}
	encoderPool.Put(e)
}

// stage publishes one encoded record into the staging segment and, for a
// barrier, waits until it is written and fsynced. It consumes e.
func (s *Store) stage(barrier bool, e *recordEncoder) {
	payload := e.w.Finish()
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))

	s.mu.Lock()
	if s.f == nil || s.err != nil {
		s.mu.Unlock()
		putEncoder(e, cap(payload))
		return
	}
	s.staged = append(s.staged, hdr[:]...)
	s.staged = append(s.staged, payload...)
	s.seq++
	seq := s.seq
	s.stats.Records++
	if n := len(s.staged); n > s.stats.StagedPeak {
		s.stats.StagedPeak = n
	}
	if barrier {
		s.stats.BarrierWaits++
		if seq > s.wantSync {
			s.wantSync = seq
		}
	}
	kick := barrier || len(s.staged) >= s.cfg.FlushBytes
	inline := len(s.staged) >= 4*s.cfg.FlushBytes
	s.mu.Unlock()
	putEncoder(e, cap(payload))

	if inline {
		// Backpressure: the flusher is behind, so this caller pays for
		// the flush instead of staging without bound.
		s.flush(false)
	} else if kick {
		s.kickFlusher()
	}
	if barrier {
		s.mu.Lock()
		for s.syncedSeq < seq && s.err == nil && s.f != nil {
			s.synced.Wait()
		}
		s.mu.Unlock()
	}
}

func (s *Store) kickFlusher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// flush drains the staging segment with one write(2) and fsyncs if a
// barrier (or forceSync) demands it. ioMu serializes flushes against
// each other and against the snapshot rotation; s.mu is held only for
// the buffer swap and the bookkeeping, never across disk I/O.
func (s *Store) flush(forceSync bool) {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	s.mu.Lock()
	f := s.f
	if f == nil || s.err != nil {
		s.mu.Unlock()
		return
	}
	needSync := forceSync || s.wantSync > s.syncedSeq
	if len(s.staged) == 0 && !needSync {
		s.mu.Unlock()
		return
	}
	buf := s.staged
	hi := s.seq
	s.staged = s.spare[:0:cap(s.spare)]
	s.spare = nil
	s.mu.Unlock()

	var err error
	if len(buf) > 0 {
		_, err = f.Write(buf)
	}
	synced := false
	if err == nil && needSync {
		if err = f.Sync(); err == nil {
			synced = true
		}
	}

	s.mu.Lock()
	if err == nil && len(buf) > 0 {
		s.stats.Writes++
		s.stats.BytesWritten += uint64(len(buf))
	}
	if synced {
		s.stats.Syncs++
	}
	if cap(buf) > s.maxRetained {
		buf = nil // a giant segment must not pin its capacity
	}
	s.spare = buf[:0:cap(buf)]
	if err != nil {
		s.failLocked(fmt.Errorf("durable: WAL flush: %w", err))
	} else {
		if hi > s.flushedSeq {
			s.flushedSeq = hi
		}
		if synced && hi > s.syncedSeq {
			s.syncedSeq = hi
			s.synced.Broadcast()
		}
	}
	s.mu.Unlock()
}

// Flush forces every record staged so far onto disk (written and
// fsynced) and reports the store's sticky error state. Serving code
// never needs it — barriers and the background flusher cover the
// contract — but deterministic tests and the crash simulator use it to
// pin down the exact flushed prefix.
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.f == nil || s.err != nil {
		err := s.err
		s.mu.Unlock()
		return err
	}
	if s.seq > s.wantSync {
		s.wantSync = s.seq
	}
	s.mu.Unlock()
	s.flush(true)
	return s.Err()
}

// failLocked records the first write-path failure (s.mu held). The error
// is sticky and surfaced on Snapshot/Close/Err — the serving path must
// not start refusing clients because the disk filled — but it is audited
// immediately: an operator watching the audit log sees the disk problem
// while the daemon is still serving, not at shutdown.
func (s *Store) failLocked(err error) {
	if s.err != nil {
		return
	}
	s.err = err
	s.synced.Broadcast() // barrier waiters must not hang on a dead WAL
	s.audit("wal-error", "generation=%d sticky=%v", s.gen, err)
}

// startFlusher launches the background flusher if the store has a live
// WAL file and no flusher yet. Idempotent.
func (s *Store) startFlusher() {
	s.mu.Lock()
	if s.flusherOn || s.f == nil {
		s.mu.Unlock()
		return
	}
	s.flusherOn = true
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	stop, done, interval := s.stop, s.done, s.cfg.FlushInterval
	s.mu.Unlock()
	go s.runFlusher(interval, stop, done)
}

func (s *Store) runFlusher(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-s.kick:
		case <-ticker.C:
		}
		s.flush(false)
	}
}

// stopFlusher stops the background flusher and waits for it to exit.
// Staged records stay staged; Close drains them.
func (s *Store) stopFlusher() {
	s.mu.Lock()
	if !s.flusherOn {
		s.mu.Unlock()
		return
	}
	s.flusherOn = false
	stop, done := s.stop, s.done
	s.mu.Unlock()
	close(stop)
	<-done
}
