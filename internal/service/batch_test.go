package service

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/race"
	"glimmers/internal/xcrypto"
)

// faultBatch builds a batch mixing every refusal the ticketed path can
// produce with valid traffic under two tickets, plus raw garbage. The
// returned batch is the equivalence corpus: submitted as one frame, every
// item must land exactly where it does submitted on its own.
func faultBatch(dim int, round uint64, good, narrow testTicket) [][]byte {
	ghost := testTicket{id: 9999, key: xcrypto.SessionKey{0xEE}, first: 1, last: 100}
	forged := append([]byte(nil), ticketedRaw("batch.example", round, dim, 2, good)...)
	forged[len(forged)-1] ^= 0xFF // flip a MAC byte
	dup := ticketedRaw("batch.example", round, dim, 3, good)
	return [][]byte{
		ticketedRaw("batch.example", round, dim, 1, good), // accept
		forged,                      // ErrBadMAC
		dup,                         // accept
		append([]byte(nil), dup...), // ErrDuplicate
		ticketedRaw("other.example", round, dim, 4, good),   // ErrWrongService
		ticketedRaw("batch.example", round+1, dim, 5, good), // ErrWrongRound
		ticketedRaw("batch.example", round, dim+2, 6, good), // ErrWrongDim
		ticketedRaw("batch.example", round, dim, 7, ghost),  // ErrUnknownTicket
		ticketedRaw("batch.example", round, dim, 8, narrow), // ErrTicketWindow
		{0xFF, 0xFF, 0xFF, 0xFF},                            // decode error
		ticketedRaw("batch.example", round, dim, 9, good),   // accept
		ticketedRaw("batch.example", round, dim, 1, good),   // ErrDuplicate of [0]
	}
}

func batchPipeline(dim int, round uint64, workers int, tbl *TicketTable) *Pipeline {
	return NewPipeline(PipelineConfig{
		ServiceName:    "batch.example",
		Dim:            dim,
		Round:          round,
		Tickets:        tbl,
		Workers:        workers,
		ExpectedCohort: 4096,
	})
}

// TestAddBatchMatchesPerItem is framing invariance on the full fault mix:
// one frame of N and N frames of one (Add) give identical accept/reject
// verdicts, error values, rejected counter, and sum.
func TestAddBatchMatchesPerItem(t *testing.T) {
	const dim, round = 16, uint64(5)
	tbl := NewTicketTable(TicketConfig{})
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 1 << 32}
	narrow := testTicket{id: 8, key: xcrypto.SessionKey{0xB8}, first: 1, last: 2}
	tbl.Install(good.id, good.key, good.first, good.last, 1<<62)
	tbl.Install(narrow.id, narrow.key, narrow.first, narrow.last, 1<<62)
	batch := faultBatch(dim, round, good, narrow)

	ref := batchPipeline(dim, round, 1, tbl)
	refErrs := make([]error, len(batch))
	for i, raw := range batch {
		refErrs[i] = ref.Add(raw)
	}

	got := batchPipeline(dim, round, 1, tbl)
	gotErrs := got.AddBatch(batch)
	for i := range batch {
		switch {
		case (refErrs[i] == nil) != (gotErrs[i] == nil):
			t.Errorf("item %d: per-item err %v, batch err %v", i, refErrs[i], gotErrs[i])
		case refErrs[i] != nil && refErrs[i].Error() != gotErrs[i].Error():
			t.Errorf("item %d: per-item err %q, batch err %q", i, refErrs[i], gotErrs[i])
		}
	}
	if ref.Count() != got.Count() || ref.Rejected() != got.Rejected() {
		t.Errorf("tallies diverge: per-item (%d, %d), batch (%d, %d)",
			ref.Count(), ref.Rejected(), got.Count(), got.Rejected())
	}
	if ref.Sum().Digest() != got.Sum().Digest() {
		t.Error("sums diverge between per-item and batch paths")
	}
	ref.Close()
	got.Close()
}

// TestAddBatchMatchesPerItemAcrossWorkers extends the equivalence to the
// chunked per-frame fan-out. Chunk boundaries make duplicate attribution
// racy (one of the pair wins, as with any concurrent ingest), so the
// per-index comparison gives way to order-independent invariants: the
// tallies, the sum, and the multiset of error kinds.
func TestAddBatchMatchesPerItemAcrossWorkers(t *testing.T) {
	const dim, round = 16, uint64(5)
	tbl := NewTicketTable(TicketConfig{})
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 1 << 32}
	narrow := testTicket{id: 8, key: xcrypto.SessionKey{0xB8}, first: 1, last: 2}
	tbl.Install(good.id, good.key, good.first, good.last, 1<<62)
	tbl.Install(narrow.id, narrow.key, narrow.first, narrow.last, 1<<62)
	batch := faultBatch(dim, round, good, narrow)
	// Pad with enough valid traffic that every worker count actually chunks.
	for i := 0; i < 100; i++ {
		batch = append(batch, ticketedRaw("batch.example", round, dim, 100+i, good))
	}

	ref := batchPipeline(dim, round, 1, tbl)
	for _, raw := range batch {
		_ = ref.Add(raw)
	}
	wantSum := ref.Sum().Digest()
	ref.Close()

	for _, workers := range []int{1, 2, 3, 4} {
		p := batchPipeline(dim, round, workers, tbl)
		errs := p.AddBatch(batch)
		kinds := map[string]int{}
		for _, err := range errs {
			if err != nil {
				kinds[err.Error()]++
			}
		}
		if p.Count() != ref.Count() || p.Rejected() != ref.Rejected() {
			t.Errorf("workers=%d: tallies (%d, %d), want (%d, %d)",
				workers, p.Count(), p.Rejected(), ref.Count(), ref.Rejected())
		}
		if got := p.Sum().Digest(); got != wantSum {
			t.Errorf("workers=%d: sum digest %s, want %s", workers, got, wantSum)
		}
		for _, sentinel := range []error{ErrBadMAC, ErrDuplicate, ErrWrongService, ErrWrongRound,
			ErrWrongDim, ErrUnknownTicket, ErrTicketWindow} {
			n := 0
			for _, err := range errs {
				if errors.Is(err, sentinel) {
					n++
				}
			}
			wantN := 0
			if sentinel == ErrDuplicate {
				wantN = 2
			} else {
				wantN = 1
			}
			if n != wantN {
				t.Errorf("workers=%d: %d × %v, want %d", workers, n, sentinel, wantN)
			}
		}
		p.Close()
	}
}

// TestAddBatchLifecycleRefusal checks the whole-batch refusal path fills
// every slot.
func TestAddBatchLifecycleRefusal(t *testing.T) {
	tbl := NewTicketTable(TicketConfig{})
	p := batchPipeline(8, 1, 1, tbl)
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	errs[1] = errors.New("stale") // reused slices must be overwritten
	p.AddBatchErrs(make([][]byte, 3), errs)
	for i, err := range errs {
		if !errors.Is(err, ErrRoundSealed) {
			t.Errorf("slot %d: %v, want ErrRoundSealed", i, err)
		}
	}
	p.Close()
}

// TestIngestArenaNotAliasedAcrossConcurrentAddBatch is the arena's -race
// guard on ticketed traffic (the signed variant's is
// TestPooledScratchNotAliasedAcrossConcurrentAddBatch): many
// concurrent AddBatch callers, one ticket per caller, and the final sum
// must be exact — any arena state bleeding between concurrent batches
// corrupts a lane.
func TestIngestArenaNotAliasedAcrossConcurrentAddBatch(t *testing.T) {
	const (
		dim       = 32
		perCaller = 64
		callers   = 6
		round     = uint64(5)
	)
	tbl := NewTicketTable(TicketConfig{})
	tickets := make([]testTicket, callers)
	for c := range tickets {
		tickets[c] = testTicket{id: uint64(100 + c), key: xcrypto.SessionKey{byte(c + 1)}, first: 1, last: 16}
		tbl.Install(tickets[c].id, tickets[c].key, tickets[c].first, tickets[c].last, 1<<62)
	}
	for _, workers := range []int{1, 4} {
		p := batchPipeline(dim, round, workers, tbl)
		all := make([][][]byte, callers)
		want := fixed.NewVector(dim)
		for c := 0; c < callers; c++ {
			all[c] = make([][]byte, perCaller)
			for i := range all[c] {
				raw := ticketedRaw("batch.example", round, dim, c*perCaller+i, tickets[c])
				tc, err := glimmer.DecodeTicketedContribution(raw)
				if err != nil {
					t.Fatal(err)
				}
				want.AddInPlace(tc.Blinded)
				all[c][i] = raw
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(batch [][]byte) {
				defer wg.Done()
				for _, err := range p.AddBatch(batch) {
					if err != nil {
						t.Errorf("AddBatch: %v", err)
					}
				}
			}(all[c])
		}
		wg.Wait()
		if err := p.Seal(); err != nil {
			t.Fatal(err)
		}
		if p.Count() != callers*perCaller {
			t.Fatalf("workers=%d: count = %d, want %d", workers, p.Count(), callers*perCaller)
		}
		got := p.Sum()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: sum[%d] = %v, want %v (arena aliasing?)", workers, i, got[i], want[i])
			}
		}
		p.Close()
	}
}

// TestAddBatchMustNotRetain enforces the frame-buffer contract end to end:
// once AddBatch returns, the caller may reuse (here: trash) every input
// buffer without corrupting the aggregate — nothing in the pipeline, its
// shards, or the pooled arenas may still reference the frames. Both wire
// variants ride the frames: a signed item's lanes are views into the
// caller's buffer exactly as a ticketed item's are.
func TestAddBatchMustNotRetain(t *testing.T) {
	const dim, round = 16, uint64(3)
	tbl := NewTicketTable(TicketConfig{})
	tk := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 16}
	tbl.Install(tk.id, tk.key, tk.first, tk.last, 1<<62)
	p := batchPipeline(dim, round, 1, tbl)
	defer p.Close()

	want := fixed.NewVector(dim)
	frame := func(salt int) [][]byte {
		raws := make([][]byte, 32)
		for i := range raws {
			if i%2 == 0 {
				raws[i] = ticketedRaw("batch.example", round, dim, salt+i, tk)
				tc, err := glimmer.DecodeTicketedContribution(raws[i])
				if err != nil {
					t.Fatal(err)
				}
				want.AddInPlace(tc.Blinded)
				continue
			}
			raws[i] = tenantContribution(t, nil, "batch.example", round, dim, salt+i)
			sc, err := glimmer.DecodeSignedContribution(raws[i])
			if err != nil {
				t.Fatal(err)
			}
			want.AddInPlace(sc.Blinded)
		}
		return raws
	}
	first := frame(0)
	for _, err := range p.AddBatch(first) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Trash every frame the first batch lived in, then keep ingesting.
	for _, raw := range first {
		for j := range raw {
			raw[j] = 0xDD
		}
	}
	for _, err := range p.AddBatch(frame(1000)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p.Count() != 64 {
		t.Fatalf("count = %d, want 64", p.Count())
	}
	got := p.Sum()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sum[%d] = %v, want %v (a frame view was retained)", i, got[i], want[i])
		}
	}
}

// TestAddBatchErrsAllocFree pins the batch plan's zero-allocation contract:
// steady-state batches through a warmed pipeline, with a caller-owned error
// slice, allocate nothing per batch.
func TestAddBatchErrsAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim, round, batchSize, runs = 64, uint64(7), 16, 100
	tbl := NewTicketTable(TicketConfig{})
	tk := testTicket{id: 42, key: xcrypto.SessionKey{1, 2, 3}, first: 1, last: 16}
	tbl.Install(tk.id, tk.key, tk.first, tk.last, 1<<62)
	batches := make([][][]byte, runs+2)
	for b := range batches {
		batches[b] = make([][]byte, batchSize)
		for i := range batches[b] {
			batches[b][i] = ticketedRaw("batch.example", round, dim, b*batchSize+i, tk)
		}
	}
	p := NewPipeline(PipelineConfig{
		ServiceName:    "batch.example",
		Dim:            dim,
		Round:          round,
		Tickets:        tbl,
		Workers:        1,
		ExpectedCohort: len(batches) * batchSize,
	})
	defer p.Close()
	errs := make([]error, batchSize)
	p.AddBatchErrs(batches[0], errs) // warm the arena, MAC snapshots, shards
	b := 0
	if got := testing.AllocsPerRun(runs, func() {
		b++
		p.AddBatchErrs(batches[b], errs)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}); got > 0 {
		t.Errorf("AddBatchErrs: %.2f allocs/op, want 0", got)
	}
	if p.Count() != (b+1)*batchSize {
		t.Fatalf("count = %d, want %d", p.Count(), (b+1)*batchSize)
	}
}

// TestSignedFrameAllocs pins what the plan costs a signed frame: 128 items
// through AddBatchErrs allocate nothing per frame with verification off
// (decode, dedup, accumulate and the arena are the ticketed path's own), and
// with a key nothing beyond the verifier's one object per item
// (xcrypto's TestSignVerifyAllocs) — no vector, no preimage copy.
func TestSignedFrameAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	const dim, round, frameSize, runs = 64, uint64(7), 128, 10
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		key  *xcrypto.SigningKey
		max  float64
	}{{"verify-off", nil, 0}, {"verify-on", key, frameSize}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := PipelineConfig{
				ServiceName: "alloc.example", Dim: dim, Round: round,
				Workers: 1, ExpectedCohort: (runs + 2) * frameSize,
			}
			if tc.key != nil {
				cfg.Verify = tc.key.Public()
			}
			p := NewPipeline(cfg)
			defer p.Close()
			raws := allocRaws(t, (runs+2)*frameSize, dim, round, tc.key)
			errs := make([]error, frameSize)
			p.AddBatchErrs(raws[:frameSize], errs) // warm the arena and the shards
			f := 0
			if got := testing.AllocsPerRun(runs, func() {
				f++
				p.AddBatchErrs(raws[f*frameSize:(f+1)*frameSize], errs)
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
			}); got > tc.max {
				t.Errorf("signed frame of %d: %.2f allocs/frame, want <= %v", frameSize, got, tc.max)
			}
			if p.Count() != (f+1)*frameSize {
				t.Fatalf("count = %d, want %d", p.Count(), (f+1)*frameSize)
			}
		})
	}
}

// mixedFrame builds an n-item frame mixing both wire variants with every
// kind of refusal. Each duplicate sits right behind its original, so for
// chunk sizes that are multiples of 8 the pair shares a chunk and the
// frame's error slots are deterministic whatever the fan-out.
func mixedFrame(n, dim int, round uint64, good testTicket) [][]byte {
	frame := make([][]byte, n)
	for i := range frame {
		switch i % 8 {
		case 1: // signed variant, among ticketed neighbours
			sc := glimmer.SignedContribution{
				ServiceName: "batch.example", Round: round,
				Blinded: make(fixed.Vector, dim), Confidence: 1,
			}
			sc.Blinded[0] = fixed.Ring(uint64(i) + 1)
			frame[i] = glimmer.EncodeSignedContribution(sc)
		case 2: // ErrBadMAC
			frame[i] = ticketedRaw("batch.example", round, dim, i, good)
			frame[i][len(frame[i])-1] ^= 0xFF
		case 4: // ErrWrongRound
			frame[i] = ticketedRaw("batch.example", round+1, dim, i, good)
		case 5: // decode error
			frame[i] = []byte{0xFF, 0xFF, 0xFF, byte(i)}
		case 7: // ErrDuplicate of the item before
			frame[i] = append([]byte(nil), frame[i-1]...)
		default: // accept
			frame[i] = ticketedRaw("batch.example", round, dim, i, good)
		}
	}
	return frame
}

// TestAddBatchInlineChunkMatchesSerial is the differential test for the
// chunking rule: a frame that fits one chunk runs on the caller, a frame
// that splits keeps its last chunk there, and either way the error slots,
// the sum and the rejection count are those of the Workers == 1 plan. A
// frame of at most minBatchChunk items must spawn nothing: it runs with 0
// allocations, and a goroutine would cost at least its closure. What the
// fan-out of a split frame allocates is pinned beside it.
func TestAddBatchInlineChunkMatchesSerial(t *testing.T) {
	const dim, round = 8, uint64(3)
	tbl := NewTicketTable(TicketConfig{})
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 1 << 32}
	tbl.Install(good.id, good.key, good.first, good.last, 1<<62)
	for _, n := range []int{1, minBatchChunk, minBatchChunk + 1, 128} {
		frame := mixedFrame(n, dim, round, good)
		serial := batchPipeline(dim, round, 1, tbl)
		want := serial.AddBatch(frame)
		pooled := batchPipeline(dim, round, 4, tbl)
		got := pooled.AddBatch(frame)
		for i := range frame {
			if (want[i] == nil) != (got[i] == nil) || want[i] != nil && want[i].Error() != got[i].Error() {
				t.Errorf("n=%d item %d: workers=1 err %v, workers=4 err %v", n, i, want[i], got[i])
			}
		}
		if serial.Count() != pooled.Count() || serial.Rejected() != pooled.Rejected() {
			t.Errorf("n=%d: tallies (%d, %d) under workers=4, want (%d, %d)",
				n, pooled.Count(), pooled.Rejected(), serial.Count(), serial.Rejected())
		}
		if serial.Rejected() == 0 && n > 2 {
			t.Errorf("n=%d: the mixed frame refused nothing", n)
		}
		if w, g := serial.Sum().Digest(), pooled.Sum().Digest(); w != g {
			t.Errorf("n=%d: sum digest %s under workers=4, want %s", n, g, w)
		}
		if !race.Enabled {
			// An unsplit frame costs nothing; one that fans out costs its
			// WaitGroup and one closure per goroutine — 4 for the 128-item
			// frame's four chunks — and must not drift past that.
			ceiling := 0.0
			if chunk := max((n+3)/4, minBatchChunk); n > chunk {
				ceiling = float64((n + chunk - 1) / chunk)
			}
			clean := make([][]byte, n)
			for i := range clean {
				clean[i] = ticketedRaw("batch.example", round, dim, 1000+i, good)
			}
			errs := make([]error, n)
			pooled.AddBatchErrs(clean, errs) // warm; every rerun is all duplicates
			if allocs := testing.AllocsPerRun(20, func() { pooled.AddBatchErrs(clean, errs) }); allocs > ceiling {
				t.Errorf("n=%d: a frame at workers=4 cost %.1f allocs, want <= %v", n, allocs, ceiling)
			}
		}
		serial.Close()
		pooled.Close()
	}
}

// settledGoroutines gives goroutines that have signalled completion a
// moment to finish exiting, then reports how many are left.
func settledGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestSealedRoundOwnsNoGoroutines: a frame that fans out leaves nothing
// running once AddBatch has returned — a round that is sealed but never
// closed (what node.Drain and node.Kill leave behind) holds no goroutine.
func TestSealedRoundOwnsNoGoroutines(t *testing.T) {
	const dim, round = 8, uint64(3)
	tbl := NewTicketTable(TicketConfig{})
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 16}
	tbl.Install(good.id, good.key, good.first, good.last, 1<<62)
	frame := make([][]byte, 128)
	for i := range frame {
		frame[i] = ticketedRaw("batch.example", round, dim, i, good)
	}
	baseline := runtime.NumGoroutine()
	p := batchPipeline(dim, round, 4, tbl)
	for i, err := range p.AddBatch(frame) {
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if err := p.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := settledGoroutines(baseline); got > baseline {
		t.Errorf("%d goroutines after AddBatch + Seal, baseline %d: the round kept some", got, baseline)
	}
	if p.Count() != len(frame) {
		t.Errorf("count = %d, want %d", p.Count(), len(frame))
	}
}
