package service

import (
	"encoding/binary"
	"fmt"
	"sync"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/xcrypto"
)

// The batch ingest plan. The per-item hot path pays, for every ticketed
// contribution: a scratch decode that materializes the vector, a ticket
// table read, an HMAC whose key schedule is recomputed from scratch, and a
// shard lock acquisition. A batch shares almost all of that: contributions
// in one frame overwhelmingly name the same ticket (same session key, same
// table row) and land across a handful of shards. So AddBatch restructures
// the work into phases over a per-batch arena:
//
//  1. decode every frame into a zero-copy TicketedView (vectors stay as
//     wire lane bytes) and run the cheap identity checks in submission
//     order — error slots and the rejected counter land exactly where the
//     per-item path would put them;
//  2. resolve each distinct ticket against the table once, then verify all
//     MACs under a key whose HMAC pad states are computed once per ticket
//     (xcrypto.MACState.SetKey) instead of once per message;
//  3. counting-sort the survivors by dedup shard — the sort is stable, so
//     per-shard processing preserves submission order and duplicates
//     resolve identically to the per-item path — and take each shard lock
//     once, bulk-inserting digests and accumulating vectors straight from
//     the frames' lane bytes (fixed.AccumulateWireInto).
//
// The arena is reset once per batch rather than a scratch being pooled per
// item, and is returned to its pool with every frame view cleared: the
// must-not-retain contract is the same one putScratch enforces.
//
// A frame larger than one chunk fans out: AddBatchErrs starts a goroutine
// per extra chunk, each running the whole plan over its chunk, and waits
// for all of them before it returns. The frame owns those goroutines; the
// pipeline owns none.
//
// Signed (ECDSA) contributions are legal in a batch but take the per-item
// path inline at their submission position; the batch plan exists for the
// ticketed fast path, which is where the volume is.

// batchItem is one ticketed contribution's phase state.
type batchItem struct {
	idx    int // position in the submitted batch
	group  int // index into ingestArena.groups
	shard  uint64
	ok     bool // survived phases 1–2; eligible for the shard phase
	digest [32]byte
	view   glimmer.TicketedView
}

// ticketGroup is one distinct ticket named by the batch, resolved against
// the table exactly once.
type ticketGroup struct {
	id  uint64
	key xcrypto.SessionKey
	err error
}

// ingestArena is the per-batch scratch: everything the batch plan needs,
// reset once per batch and pooled across batches (and pipelines — the
// arena is workload-shaped, not round-shaped).
type ingestArena struct {
	items  []batchItem
	groups []ticketGroup
	counts []int32 // counting sort: per-shard item counts, then offsets
	starts []int32 // counting sort: per-shard segment starts
	order  []int32 // item indices, stably grouped by shard

	// mac verifies every MAC of the batch. Its keyed pad cache outlives the
	// batch with the pooled arena, so a frame stream naming the same ticket
	// skips the key schedule entirely after the first batch.
	mac xcrypto.MACState

	// Journal scratch: the frame's accepted-digest list and summed delta,
	// handed to Journal.BatchAccepted (which must not retain them — the
	// same contract the arena itself rides on).
	jdigests [][32]byte
	jdelta   fixed.Vector
}

var arenaPool = sync.Pool{New: func() any { return new(ingestArena) }}

// release clears every frame view and returns the arena to the pool. An
// idle pooled arena must not keep a transport's frame buffers reachable.
func (a *ingestArena) release() {
	for i := range a.items {
		a.items[i].view.Clear()
	}
	a.items = a.items[:0]
	a.groups = a.groups[:0]
	arenaPool.Put(a)
}

// group returns the index of the ticket group for id, creating it on first
// sight. Batches name very few distinct tickets, so a linear scan beats a
// map (and allocates nothing).
func (a *ingestArena) group(id uint64) int {
	for i := range a.groups {
		if a.groups[i].id == id {
			return i
		}
	}
	a.groups = append(a.groups, ticketGroup{id: id})
	return len(a.groups) - 1
}

// AddBatchErrs is AddBatch writing into a caller-owned error slice (one
// slot per input, nil for accepted), so steady-state callers can reuse the
// slice and keep the whole submission allocation-free. It blocks until the
// batch has settled. len(errs) must equal len(raws).
func (p *Pipeline) AddBatchErrs(raws [][]byte, errs []error) {
	if len(errs) != len(raws) {
		panic(fmt.Sprintf("service: AddBatchErrs got %d error slots for %d inputs", len(errs), len(raws)))
	}
	if len(raws) == 0 {
		return
	}
	// Accepted items never write their slot, so a reused errs slice must
	// start clean.
	for i := range errs {
		errs[i] = nil
	}
	if err := p.enter(len(raws)); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return
	}
	// Chunks of at least minBatchChunk items, at most Workers of them. All
	// but the last get a goroutine each; the last runs here, on the
	// goroutine that would otherwise only park on wg.Wait — so a frame that
	// fits one chunk (Workers == 1, or a small frame) spawns nothing and
	// allocates nothing.
	n := len(raws)
	chunk := max((n+p.cfg.Workers-1)/p.cfg.Workers, minBatchChunk)
	if n > chunk {
		var wg sync.WaitGroup
		for ; len(raws) > chunk; raws, errs = raws[chunk:], errs[chunk:] {
			head, headErrs := raws[:chunk], errs[:chunk]
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.processBatch(head, headErrs)
			}()
		}
		p.processBatch(raws, errs)
		wg.Wait()
	} else {
		p.processBatch(raws, errs)
	}
	p.pending.Add(-n)
}

// minBatchChunk bounds fan-out granularity: below this, handoff overhead
// beats the parallelism.
const minBatchChunk = 16

// processBatch runs the three-phase plan over one batch. Accept/reject
// decisions, error values, and the rejected counter match the per-item
// path exactly; only the cost shape differs.
func (p *Pipeline) processBatch(raws [][]byte, errs []error) {
	a := arenaPool.Get().(*ingestArena)
	defer a.release()

	// Phase 1: decode and cheap identity checks, in submission order.
	// Signed-variant contributions take the per-item path right here, at
	// their submission position.
	for i, raw := range raws {
		if !glimmer.PeekContributionTicketed(raw) {
			errs[i] = p.process(raw)
			continue
		}
		if cap(a.items) > len(a.items) {
			a.items = a.items[:len(a.items)+1]
		} else {
			a.items = append(a.items, batchItem{})
		}
		it := &a.items[len(a.items)-1]
		it.idx, it.ok = i, false
		if err := it.view.Decode(raw); err != nil {
			errs[i] = p.refuse(fmt.Errorf("service: %w", err), 1)
			continue
		}
		if string(it.view.ServiceName) != p.cfg.ServiceName {
			errs[i] = p.refuse(ErrWrongService, 1)
			continue
		}
		if it.view.Round != p.cfg.Round {
			errs[i] = p.refuse(ErrWrongRound, 1)
			continue
		}
		if it.view.Lanes() != p.cfg.Dim {
			errs[i] = p.refuse(ErrWrongDim, 1)
			continue
		}
		if p.cfg.Tickets == nil {
			errs[i] = p.refuse(ErrUnknownTicket, 1)
			continue
		}
		it.group = a.group(it.view.TicketID)
		it.ok = true
	}

	// Phase 2: resolve each distinct ticket once, then verify every MAC
	// under cached pad states. Items are in submission order, which is
	// almost always a single run of one ticket, so SetKey is a no-op for
	// all but the first item of each run.
	for gi := range a.groups {
		g := &a.groups[gi]
		// Every item in the group already passed the round check, so
		// the group resolves at the pipeline's round — the same
		// (ticket, round) pair the per-item path would present.
		g.key, g.err = p.cfg.Tickets.check(g.id, p.cfg.Round)
	}
	for i := range a.items {
		it := &a.items[i]
		if !it.ok {
			continue
		}
		g := &a.groups[it.group]
		if g.err != nil {
			it.ok = false
			errs[it.idx] = p.refuse(g.err, 1)
			continue
		}
		a.mac.SetKey(&g.key)
		head, tail := it.view.PreimageParts()
		if !a.mac.VerifyKeyed(head, tail, it.view.MAC) {
			it.ok = false
			errs[it.idx] = p.refuse(ErrBadMAC, 1)
			continue
		}
		// The verified MAC doubles as the dedup digest, exactly as on
		// the per-item path.
		copy(it.digest[:], it.view.MAC)
		it.shard = binary.BigEndian.Uint64(it.digest[:8]) & p.shardMask
	}

	// Phase 3: stable counting sort by shard, then one lock per shard.
	nShards := len(p.shards)
	if cap(a.counts) < nShards {
		a.counts = make([]int32, nShards)
		a.starts = make([]int32, nShards)
	}
	counts := a.counts[:nShards]
	starts := a.starts[:nShards]
	for i := range counts {
		counts[i] = 0
	}
	live := 0
	for i := range a.items {
		if a.items[i].ok {
			counts[a.items[i].shard]++
			live++
		}
	}
	if live == 0 {
		return
	}
	if cap(a.order) < live {
		a.order = make([]int32, live)
	}
	order := a.order[:live]
	off := int32(0)
	for s := range counts {
		starts[s] = off
		off += counts[s]
		counts[s] = starts[s] // reuse as the scatter cursor
	}
	for i := range a.items {
		if it := &a.items[i]; it.ok {
			order[counts[it.shard]] = int32(i)
			counts[it.shard]++
		}
	}
	dups := 0
	for s := range starts {
		lo := starts[s]
		hi := counts[s] // cursor ended at the segment's end
		if lo == hi {
			continue
		}
		sh := p.shards[s]
		sh.mu.Lock()
		for _, k := range order[lo:hi] {
			it := &a.items[k]
			if sh.seen[it.digest] {
				errs[it.idx] = ErrDuplicate
				dups++
				continue
			}
			sh.seen[it.digest] = true
			fixed.AccumulateWireInto(sh.sum, it.view.LaneBytes)
			sh.count++
		}
		sh.mu.Unlock()
	}

	// One watermark record for the whole frame, journaled outside every
	// shard lock while the arena's views are still alive. The digest list
	// and delta live in the arena: the journal encodes synchronously and
	// must not retain them, so the scratch recycles with the arena.
	if j := p.journal; j != nil && live > dups {
		digests := a.jdigests[:0]
		if len(a.jdelta) != p.cfg.Dim {
			a.jdelta = fixed.NewVector(p.cfg.Dim)
		}
		delta := a.jdelta
		for i := range delta {
			delta[i] = 0
		}
		for i := range a.items {
			it := &a.items[i]
			if it.ok && errs[it.idx] == nil {
				digests = append(digests, it.digest)
				fixed.AccumulateWireInto(delta, it.view.LaneBytes)
			}
		}
		a.jdigests = digests
		j.BatchAccepted(p.cfg.ServiceName, p.cfg.Round, digests, delta)
	}
	// The frame's duplicates are booked together, behind its watermark.
	if dups > 0 {
		_ = p.refuse(ErrDuplicate, dups)
	}
}
