package service

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"glimmers/internal/wire"
)

// The bound itself: a MergeHub's working set is fixed by its caps no
// matter how many rounds pass through it, and what leaves the hub leaves
// its count behind in Stats.

const hubTestDim = 8

// hubSeal builds node n's signed partial of (svc, round) without running a
// pipeline: a count of contribs and a sum of contribs × lane in each lane.
func hubSeal(tb testing.TB, n NodeSeal, svc string, round uint64, contribs int, lane uint64) []byte {
	tb.Helper()
	der, err := n.Key.Public().Marshal()
	if err != nil {
		tb.Fatal(err)
	}
	seal := wire.PartialSeal{
		Service:     svc,
		Round:       round,
		NodeID:      n.NodeID,
		ShardCount:  n.ShardCount,
		Measurement: n.Measurement[:],
		NodeKey:     der,
		Count:       uint64(contribs),
		Rejected:    1,
		Sum:         make([]uint64, hubTestDim),
	}
	for i := range seal.Sum {
		seal.Sum[i] = uint64(contribs) * lane
	}
	if seal.Signature, err = n.Key.Sign(seal.SignedBytes()); err != nil {
		tb.Fatal(err)
	}
	return wire.EncodePartialSeal(seal)
}

// heldMerges counts what Merges reports.
func heldMerges(h *MergeHub) int {
	n := 0
	for _, rounds := range h.Merges() {
		n += len(rounds)
	}
	return n
}

// liveHeap is the heap a collection leaves. The second collection empties
// the sync.Pool victim caches the first one fills, so pooled garbage from
// before the sample is not counted as live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMergeHubBoundedWorkingSet drives ten times the merge cap of rounds
// through one hub, their seals from two nodes in turn. The tombstone ring
// is sized to the merge cap so that it, too, is full by the first heap
// sample.
func TestMergeHubBoundedWorkingSet(t *testing.T) {
	const contribs = 64
	caps := hubCaps{done: 64, tombs: 64}
	hub := &MergeHub{AllowTOFU: true, caps: caps}
	nodes := [2]NodeSeal{newNodeSeal(t, 1, 1), newNodeSeal(t, 2, 1)}

	var want HubStats
	var heapAt2x uint64
	for round := uint64(1); round <= uint64(10*caps.done); round++ {
		n := nodes[round%2]
		if _, err := hub.MergePartialSeal(hubSeal(t, n, "svc", round, contribs, round)); err != nil {
			t.Fatalf("round %d node %d: %v", round, n.NodeID, err)
		}
		want.SealsAbsorbed++
		want.ContribsMerged += contribs
		want.ContribsRejected++
		if held := heldMerges(hub); held > caps.done {
			t.Fatalf("round %d: hub holds %d merges, caps allow %d", round, held, caps.done)
		}
		if round == uint64(2*caps.done) {
			heapAt2x = liveHeap()
		}
	}
	heapAt10x := liveHeap()
	if lo, hi := heapAt2x-heapAt2x/10, heapAt2x+heapAt2x/10; heapAt10x < lo || heapAt10x > hi {
		t.Fatalf("live heap %d B after %d rounds, %d B after %d: the hub's working set is not bounded",
			heapAt10x, 10*caps.done, heapAt2x, 2*caps.done)
	}
	want.Completed = caps.done
	want.Retired = uint64(9 * caps.done)
	if got := hub.Stats(); got != want {
		t.Fatalf("hub ledger = %+v, want %+v", got, want)
	}
	if held := heldMerges(hub); held != caps.done {
		t.Fatalf("hub holds %d merges after the run, want the %d newest", held, caps.done)
	}
	if _, ok := hub.Lookup("svc", 1); ok {
		t.Fatal("the oldest merge was never retired")
	}
	if _, ok := hub.Lookup("svc", uint64(10*caps.done)); !ok {
		t.Fatal("the newest merge is not held")
	}
}

// TestMergeHubRetiredReplay: a seal replayed for a round the hub retired
// is refused as retired while the tombstone lasts — it does not open a
// fresh merge — and is counted once. Past the tombstone window the replay
// can reopen the round, and all it can do there is re-derive the same sum
// from the same signed partials.
func TestMergeHubRetiredReplay(t *testing.T) {
	hub := &MergeHub{AllowTOFU: true, caps: hubCaps{done: 2, tombs: 3}}
	n := newNodeSeal(t, 1, 1)
	seals := make(map[uint64][]byte)
	run := func(round uint64) wire.MergeResult {
		t.Helper()
		seals[round] = hubSeal(t, n, "svc", round, 2, round)
		reply, err := hub.MergePartialSeal(seals[round])
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		res, err := wire.DecodeMergeResult(reply)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(1)
	run(2)
	run(3) // retires round 1
	before := hub.Stats()
	if _, err := hub.MergePartialSeal(seals[1]); !errors.Is(err, wire.ErrMergeRetired) {
		t.Fatalf("replay for a retired round got %v, want %v", err, wire.ErrMergeRetired)
	}
	after := hub.Stats()
	if after.SealsRefused != before.SealsRefused+1 {
		t.Fatalf("retired replay moved SealsRefused %d -> %d, want +1", before.SealsRefused, after.SealsRefused)
	}
	before.SealsRefused++
	if after != before {
		t.Fatalf("retired replay disturbed the ledger beyond its one refusal: %+v -> %+v", before, after)
	}
	if _, ok := hub.Lookup("svc", 1); ok {
		t.Fatal("retired replay reopened the round")
	}
	// A held completed round still answers as complete, not retired.
	if _, err := hub.MergePartialSeal(seals[3]); !errors.Is(err, wire.ErrSealReplay) {
		t.Fatalf("replay for a held round got %v, want %v", err, wire.ErrSealReplay)
	}

	// Push round 1's tombstone out of the three-slot ring.
	run(4)
	run(5)
	run(6)
	reply, err := hub.MergePartialSeal(seals[1])
	if err != nil {
		t.Fatalf("replay past the tombstone window: %v", err)
	}
	again, err := wire.DecodeMergeResult(reply)
	if err != nil {
		t.Fatal(err)
	}
	if !equalLanes(again.Sum, first.Sum) || again.Count != first.Count || again.Merged != first.Merged {
		t.Fatalf("replay past the window derived %+v, the round first merged to %+v", again, first)
	}
}

// TestMergeHubNoRoundWatermark: round numbers are client-chosen, so one
// completed round at the top of the range must not refuse the ordinary
// rounds that follow it.
func TestMergeHubNoRoundWatermark(t *testing.T) {
	hub := &MergeHub{AllowTOFU: true}
	n := newNodeSeal(t, 1, 1)
	for _, round := range []uint64{1 << 63, 1, 2, 1<<63 - 1, 3} {
		reply, err := hub.MergePartialSeal(hubSeal(t, n, "svc", round, 1, 5))
		if err != nil {
			t.Fatalf("round %d after a completed round 1<<63: %v", round, err)
		}
		if res, err := wire.DecodeMergeResult(reply); err != nil || res.Merged != 1 || res.Expect != 1 {
			t.Fatalf("round %d: result %+v, err %v", round, res, err)
		}
	}
	if st := hub.Stats(); st.Completed != 5 || st.SealsRefused != 0 {
		t.Fatalf("hub ledger = %+v, want 5 completed and nothing refused", st)
	}
}

// TestMergeHubRefusedFirstContactsLeaveNothing: well-formed seals with a
// junk signature, each naming a fresh round, are the cheapest thing an
// unauthenticated peer can send. None may leave a merge or a pin behind.
// The zero hub pins nothing, so it refuses every seal, a genuine one too.
func TestMergeHubRefusedFirstContactsLeaveNothing(t *testing.T) {
	for _, tc := range []struct {
		name           string
		hub            *MergeHub
		probe, genuine error
	}{
		{"tofu", &MergeHub{AllowTOFU: true}, wire.ErrSealSignature, nil},
		{"zero", &MergeHub{}, wire.ErrSealIdentity, wire.ErrSealIdentity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := tc.hub
			n := newNodeSeal(t, 1, 1)
			seal, err := wire.DecodePartialSeal(hubSeal(t, n, "svc", 0, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			seal.Signature = []byte("not a signature")
			const probes = 10000
			for round := uint64(1); round <= probes; round++ {
				seal.Round = round
				if _, err := hub.MergePartialSeal(wire.EncodePartialSeal(seal)); !errors.Is(err, tc.probe) {
					t.Fatalf("round %d: junk signature got %v, want %v", round, err, tc.probe)
				}
			}
			if st := hub.Stats(); st != (HubStats{SealsRefused: probes}) {
				t.Fatalf("hub ledger = %+v, want nothing but %d refusals", st, probes)
			}
			if held := heldMerges(hub); held != 0 {
				t.Fatalf("refused first contacts left %d merges behind", held)
			}
			if _, pinned := hub.pins.get(n.NodeID); pinned {
				t.Fatal("refused first contacts pinned the node")
			}
			// The node's genuine seal is its first use.
			_, err = hub.MergePartialSeal(hubSeal(t, n, "svc", 1, 1, 1))
			if !errors.Is(err, tc.genuine) {
				t.Fatalf("genuine seal after the probes: got %v, want %v", err, tc.genuine)
			}
			if _, pinned := hub.pins.get(n.NodeID); pinned != (err == nil) {
				t.Fatalf("node pinned = %v after the genuine seal got %v", pinned, err)
			}
			if held := heldMerges(hub); err != nil && held != 0 {
				t.Fatalf("the refused genuine seal left %d merges behind", held)
			}
		})
	}
}

// TestMergeHubFirstUsePinIsAtomic: two first-contact seals under one node
// ID and two keys, for two rounds, race to be that node's first use.
// Exactly one is absorbed and pins the node; the other contradicts the pin
// and is refused with ErrSealIdentity.
func TestMergeHubFirstUsePinIsAtomic(t *testing.T) {
	const races = 200
	// race hands both seals to a fresh hub at once and returns its verdicts.
	race := func(seals [2][]byte) (*MergeHub, [2]error) {
		hub := &MergeHub{AllowTOFU: true}
		var errs [2]error
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range seals {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = hub.MergePartialSeal(seals[i])
			}()
		}
		close(start)
		wg.Wait()
		return hub, errs
	}

	one, other := newNodeSeal(t, 1, 1), newNodeSeal(t, 1, 1) // one ID, two keys
	impostors := [2][]byte{hubSeal(t, one, "svc", 1, 1, 1), hubSeal(t, other, "svc", 2, 1, 1)}
	for r := 0; r < races; r++ {
		hub, errs := race(impostors)
		absorbed := 0
		for _, err := range errs {
			switch {
			case err == nil:
				absorbed++
			case !errors.Is(err, wire.ErrSealIdentity):
				t.Fatalf("race %d: seal got %v, want nil or %v", r, err, wire.ErrSealIdentity)
			}
		}
		if absorbed != 1 {
			t.Fatalf("race %d: %d of two seals under node 1 with different keys absorbed (%v), want exactly one", r, absorbed, errs)
		}
		if st := hub.Stats(); st.SealsAbsorbed != 1 || st.SealsRefused != 1 {
			t.Fatalf("race %d: hub ledger = %+v, want one seal absorbed and one refused", r, st)
		}
	}

}

// TestMergeHubConcurrent hammers one hub from 8 goroutines: every round's
// one seal reaches the hub from two goroutines at once, as a node's re-send
// racing its first send would. Exactly one copy merges, with the exact sum,
// and the other is refused with ErrSealReplay. Run under -race.
func TestMergeHubConcurrent(t *testing.T) {
	const workers, rounds, contribs = 8, 96, 4
	hub := &MergeHub{AllowTOFU: true}
	nodes := [2]NodeSeal{newNodeSeal(t, 1, 1), newNodeSeal(t, 2, 1)}
	type job struct {
		round uint64
		copy  int
		seal  []byte
	}
	jobs := make([][]job, workers)
	for round := uint64(1); round <= rounds; round++ {
		seal := hubSeal(t, nodes[round%2], "svc", round, contribs, round)
		for c := 0; c < 2; c++ {
			w := (int(round) + c*(workers/2)) % workers
			jobs[w] = append(jobs[w], job{round, c, seal})
		}
	}
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		errs    [rounds + 1][2]error
		results [rounds + 1][2]wire.MergeResult
	)
	for w := range jobs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for _, j := range jobs[w] {
				reply, err := hub.MergePartialSeal(j.seal)
				if err == nil {
					results[j.round][j.copy], err = wire.DecodeMergeResult(reply)
				}
				errs[j.round][j.copy] = err
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for round := uint64(1); round <= rounds; round++ {
		won := -1
		for c, err := range errs[round] {
			switch {
			case err == nil && won < 0:
				won = c
			case !errors.Is(err, wire.ErrSealReplay):
				t.Fatalf("round %d copy %d got %v; want one copy merged and the other %v", round, c, err, wire.ErrSealReplay)
			}
		}
		if won < 0 {
			t.Fatalf("round %d: neither copy merged (%v)", round, errs[round])
		}
		res := results[round][won]
		for _, lane := range res.Sum {
			if lane != contribs*round {
				t.Fatalf("round %d merged sum %v, want %d in every lane", round, res.Sum, contribs*round)
			}
		}
		if res.Count != contribs {
			t.Fatalf("round %d merged cohort %d, want %d", round, res.Count, contribs)
		}
	}
	want := HubStats{
		Completed:        rounds,
		SealsAbsorbed:    rounds,
		SealsRefused:     rounds,
		ContribsMerged:   rounds * contribs,
		ContribsRejected: rounds,
	}
	if st := hub.Stats(); st != want {
		t.Fatalf("hub ledger = %+v, want %+v", st, want)
	}
}

// BenchmarkMergeHub is a coordinator's steady state: rounds of one seal,
// each a first contact that merges and pushes the oldest merge out. A seal
// is the same size whatever its cohort, so one cohort stands for all.
func BenchmarkMergeHub(b *testing.B) {
	hub := &MergeHub{AllowTOFU: true}
	n := newNodeSeal(b, 1, 1)
	seals := make([][]byte, b.N)
	for i := range seals {
		seals[i] = hubSeal(b, n, "svc", uint64(i), 128, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, seal := range seals {
		if _, err := hub.MergePartialSeal(seal); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(heldMerges(hub)), "merges-held")
}
