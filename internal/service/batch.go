package service

import (
	"encoding/binary"
	"fmt"
	"sync"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
)

// The ingest plan. Every contribution crosses decode → rule → dedup →
// accumulate → journal in processBatch, as one item of a frame — a frame of
// one when it was submitted on its own (Registry.Ingest). A frame
// shares almost everything its items would otherwise each pay for:
// contributions in one frame overwhelmingly name the same ticket (same
// session key, same table row) and land across a handful of shards. So the
// plan is two passes over a per-frame arena:
//
//  1. one verification loop, in submission order. Each item is decoded into
//     the zero-copy view of its wire variant (its vector stays wire lane
//     bytes) and held to that variant's rule: verifyTicketed, whose
//     one-entry ticket memo makes a run of items under one ticket cost one
//     table read and reuse one AEAD, or verifySigned, which streams the
//     view's two preimage segments into the signature check. Either rule
//     leaves the same thing behind — a dedup digest and a view of the
//     lanes — so past this loop there is one kind of item;
//  2. one shard phase: counting-sort the survivors by dedup shard — the
//     sort is stable, so a shard sees its items in submission order and a
//     duplicate always loses to the earlier copy — and take each shard lock
//     once, bulk-inserting digests; then sum the accepted items' vectors
//     once, straight from the frames' lane bytes (fixed.AccumulateWireInto),
//     into a delta that folds into one shard's sum;
//
// then one BatchAccepted watermark carrying the accepted digests, signed and
// ticketed alike, and that delta, and behind it one Rejected record for
// every slot the frame refused (leave).
//
// The arena is pooled across frames and pipelines and returned with every
// frame view cleared: an idle arena must not keep a transport's frame
// buffer reachable — the must-not-retain contract gaas.Ingestor documents
// for this very path.
//
// A frame larger than one chunk fans out: addBatchErrs starts a goroutine
// per extra chunk, each running the whole plan over its chunk, and waits
// for all of them before it returns. The frame owns those goroutines; the
// pipeline owns none.

// batchItem is one contribution of either variant that passed its rule, on
// its way to the shard phase.
type batchItem struct {
	idx    int // position in the submitted batch
	shard  uint64
	digest [32]byte
	lanes  []byte // view into the frame: the vector's wire lane bytes
}

// ingestArena is the per-frame scratch: everything the plan needs, pooled
// across frames (and pipelines — the arena is workload-shaped, not
// round-shaped). It is held by exactly one goroutine between Get and
// release, which is what its parts' aliasing and no-concurrent-use rules
// (the views, the preimage buffer) ask for.
type ingestArena struct {
	items  []batchItem
	counts []int32 // counting sort: per-shard item counts, then offsets
	starts []int32 // counting sort: per-shard segment starts
	order  []int32 // item indices, stably grouped by shard

	// One decoder per wire variant, reused item after item: a survivor's
	// lanes move on into its batchItem, nothing else outlives the rule.
	ticketed glimmer.TicketedView
	signed   glimmer.SignedView

	// check verifies every ticketed item of the frame. Its preimage buffer
	// outlives the frame with the pooled arena; its ticket memo does not
	// (release).
	check ticketCheck

	// The accepted items' digests and summed lanes: the delta folds into
	// the round's sum, and both go to Journal.BatchAccepted (which must not
	// retain them — the same contract the arena itself rides on). delta is
	// resliced to each round's dimension within its capacity: the arena
	// serves tenants of every Dim.
	digests [][32]byte
	delta   fixed.Vector
}

var arenaPool = sync.Pool{New: func() any { return new(ingestArena) }}

// release drops every view into the caller's frame, forgets the ticket memo
// and returns the arena to the pool.
func (a *ingestArena) release() {
	for i := range a.items {
		a.items[i].lanes = nil
	}
	a.items = a.items[:0]
	a.ticketed.Clear()
	a.signed.Clear()
	a.check.memoized, a.check.clocked, a.check.aead = false, false, nil
	arenaPool.Put(a)
}

// addBatchErrs verifies and accumulates one round's group of a routed frame
// through the ingest plan, writing one error slot per input (nil for
// accepted) into the router's slots, so a steady-state frame allocates
// nothing. It blocks until the batch has settled. len(errs) must equal
// len(raws).
func (p *Pipeline) addBatchErrs(raws [][]byte, errs []error) {
	if len(errs) != len(raws) {
		panic(fmt.Sprintf("service: addBatchErrs got %d error slots for %d inputs", len(errs), len(raws)))
	}
	if len(raws) == 0 {
		return
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
	frame := errs
	chunk := max((len(raws)+p.cfg.Workers-1)/p.cfg.Workers, minBatchChunk)
	if len(raws) > chunk {
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
	p.leave(frame)
}

// leave ends a frame that entered the round: every slot the plan refused
// is non-nil, so their count is booked once for the whole frame — behind
// the watermarks its chunks journaled, and before the frame leaves pending,
// so a seal never overtakes it.
func (p *Pipeline) leave(errs []error) {
	refused := 0
	for _, err := range errs {
		if err != nil {
			refused++
		}
	}
	if refused > 0 {
		p.stateMu.RLock()
		p.refuse(refused)
		p.stateMu.RUnlock()
	}
	p.pending.Add(-len(errs))
}

// minBatchChunk bounds fan-out granularity: below this, handoff overhead
// beats the parallelism.
const minBatchChunk = 16

// processBatch runs the plan over one frame, or one chunk of one, writing
// every error slot (nil for accepted). A refused item's slot is all that
// records the refusal here; leave books it.
func (p *Pipeline) processBatch(raws [][]byte, errs []error) {
	a := arenaPool.Get().(*ingestArena)
	defer a.release()

	// The verification loop, in submission order: the rule is picked by wire
	// variant, and a.items keeps only what passed.
	for i, raw := range raws {
		it := batchItem{idx: i}
		if glimmer.PeekContributionTicketed(raw) {
			it.digest, errs[i] = verifyTicketed(p.cfg, &p.round, raw, &a.ticketed, &a.check)
			it.lanes = a.ticketed.LaneBytes
		} else {
			it.digest, errs[i] = verifySigned(p.cfg, &p.round, raw, &a.signed)
			it.lanes = a.signed.LaneBytes
		}
		if errs[i] != nil {
			continue
		}
		it.shard = binary.BigEndian.Uint64(it.digest[:8]) & p.shardMask
		a.items = append(a.items, it)
	}
	live := len(a.items)
	if live == 0 {
		return
	}

	// The shard phase: stable counting sort by shard, then one lock per shard.
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
	for i := range a.items {
		counts[a.items[i].shard]++
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
		order[counts[a.items[i].shard]] = int32(i)
		counts[a.items[i].shard]++
	}
	// Under each shard lock the phase only deduplicates: one insert, and
	// the set's size says whether the digest was new. The sum is not
	// touched here — the accepted items' lanes are summed once, below.
	// stateMu's read side spans dedup, fold and journal, so snapshot (which
	// takes the write side) sees a frame's count and sum together.
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
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
			n := len(sh.seen)
			sh.seen[it.digest] = true
			if len(sh.seen) == n {
				errs[it.idx] = ErrDuplicate
			}
		}
		sh.mu.Unlock()
	}

	// One accumulate per accepted item, in submission order, into the
	// arena's delta, while the arena's views into the frame are still
	// alive. The delta folds into one shard's sum — the first survivor's,
	// so concurrent frames spread over the locks; only the total across
	// shards is observable, as restoreAccepted relies on too — and the same
	// digests and delta make the frame's one watermark record.
	digests := a.digests[:0]
	if cap(a.delta) < p.cfg.Dim {
		a.delta = fixed.NewVector(p.cfg.Dim)
	}
	delta := a.delta[:p.cfg.Dim]
	clear(delta)
	for i := range a.items {
		it := &a.items[i]
		if errs[it.idx] == nil {
			digests = append(digests, it.digest)
			fixed.AccumulateWireInto(delta, it.lanes)
		}
	}
	a.digests = digests
	if len(digests) == 0 {
		return
	}
	sh := p.shards[a.items[0].shard]
	sh.mu.Lock()
	sh.sum.AddInPlace(delta)
	sh.mu.Unlock()
	if j := p.journal; j != nil {
		j.BatchAccepted(p.cfg.Name, p.round, digests, delta)
	}
}
