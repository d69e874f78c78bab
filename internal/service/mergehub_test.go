package service

import (
	"encoding/binary"
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
// pipeline: contribs fabricated digests (ascending, disjoint from every
// other node's) and a sum of contribs × lane in each lane.
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
		Digests:     make([]byte, contribs*wire.SealDigestLen),
	}
	for i := range seal.Sum {
		seal.Sum[i] = uint64(contribs) * lane
	}
	for i := 0; i < contribs; i++ {
		d := seal.Digests[i*wire.SealDigestLen:]
		binary.BigEndian.PutUint64(d, uint64(i))
		binary.BigEndian.PutUint32(d[8:], n.NodeID)
		binary.BigEndian.PutUint64(d[12:], round)
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

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMergeHubBoundedWorkingSet drives ten times the completed-merge cap
// of two-partial rounds through one hub. The tombstone ring is sized to
// the completed cap so that it, too, is full by the first heap sample.
func TestMergeHubBoundedWorkingSet(t *testing.T) {
	const contribs = 64
	caps := hubCaps{live: 64, done: 64, tombs: 64}
	hub := &MergeHub{AllowTOFU: true, caps: caps}
	a, b := newNodeSeal(t, 1, 2), newNodeSeal(t, 2, 2)

	var want HubStats
	var heapAt2x uint64
	for round := uint64(1); round <= uint64(10*caps.done); round++ {
		for _, n := range []NodeSeal{a, b} {
			if _, err := hub.MergePartialSeal(hubSeal(t, n, "svc", round, contribs, round)); err != nil {
				t.Fatalf("round %d node %d: %v", round, n.NodeID, err)
			}
			want.SealsAbsorbed++
			want.ContribsMerged += contribs
			want.ContribsRejected++
		}
		if held := heldMerges(hub); held > caps.live+caps.done {
			t.Fatalf("round %d: hub holds %d merges, caps allow %d", round, held, caps.live+caps.done)
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
		t.Fatalf("hub holds %d merges after the run, want the %d newest completed", held, caps.done)
	}
	if _, ok := hub.Lookup("svc", 1); ok {
		t.Fatal("the oldest completed merge was never retired")
	}
	if m, ok := hub.Lookup("svc", uint64(10*caps.done)); !ok || !m.Complete() {
		t.Fatal("the newest completed merge is not held")
	}
}

// TestMergeHubRetiredReplay: a seal replayed for a round the hub retired
// is refused as retired while the tombstone lasts — it does not open a
// fresh merge — and is counted once. Past the tombstone window the replay
// can reopen the round, and all it can do there is re-derive the same sum
// from the same signed partials.
func TestMergeHubRetiredReplay(t *testing.T) {
	hub := &MergeHub{AllowTOFU: true, caps: hubCaps{live: 4, done: 2, tombs: 3}}
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
	if _, err := hub.MergePartialSeal(seals[1]); !errors.Is(err, ErrMergeRetired) {
		t.Fatalf("replay for a retired round got %v, want %v", err, ErrMergeRetired)
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
	if _, err := hub.MergePartialSeal(seals[3]); !errors.Is(err, ErrSealReplay) {
		t.Fatalf("replay for a held round got %v, want %v", err, ErrSealReplay)
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
// unauthenticated peer can send. None may leave a merge behind.
func TestMergeHubRefusedFirstContactsLeaveNothing(t *testing.T) {
	hub := &MergeHub{AllowTOFU: true}
	n := newNodeSeal(t, 1, 2)
	seal, err := wire.DecodePartialSeal(hubSeal(t, n, "svc", 0, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	seal.Signature = []byte("not a signature")
	const probes = 10000
	for round := uint64(1); round <= probes; round++ {
		seal.Round = round
		if _, err := hub.MergePartialSeal(wire.EncodePartialSeal(seal)); !errors.Is(err, ErrSealSignature) {
			t.Fatalf("round %d: junk signature got %v, want %v", round, err, ErrSealSignature)
		}
	}
	if st := hub.Stats(); st != (HubStats{SealsRefused: probes}) {
		t.Fatalf("hub ledger = %+v, want nothing but %d refusals", st, probes)
	}
	if held := heldMerges(hub); held != 0 {
		t.Fatalf("refused first contacts left %d merges behind", held)
	}
	// The refusals pinned nothing either: the node's genuine seal is its
	// first use.
	if _, err := hub.MergePartialSeal(hubSeal(t, n, "svc", 1, 1, 1)); err != nil {
		t.Fatalf("genuine seal after the probes: %v", err)
	}
}

// TestMergeHubLiveCapAbandonsOldest: incomplete merges are bounded too;
// at the cap the oldest-created goes, behind a tombstone like any other.
func TestMergeHubLiveCapAbandonsOldest(t *testing.T) {
	hub := &MergeHub{AllowTOFU: true, caps: hubCaps{live: 3, done: 3, tombs: 8}}
	a, b := newNodeSeal(t, 1, 2), newNodeSeal(t, 2, 2)
	for round := uint64(1); round <= 4; round++ {
		if _, err := hub.MergePartialSeal(hubSeal(t, a, "svc", round, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if st := hub.Stats(); st.Live != 3 || st.Abandoned != 1 {
		t.Fatalf("hub ledger = %+v, want 3 live and 1 abandoned", st)
	}
	if _, err := hub.MergePartialSeal(hubSeal(t, b, "svc", 1, 1, 1)); !errors.Is(err, ErrMergeRetired) {
		t.Fatalf("second partial of the abandoned round got %v, want %v", err, ErrMergeRetired)
	}
	if _, err := hub.MergePartialSeal(hubSeal(t, b, "svc", 2, 1, 1)); err != nil {
		t.Fatalf("second partial of a live round: %v", err)
	}
	if st := hub.Stats(); st.Live != 2 || st.Completed != 1 {
		t.Fatalf("hub ledger = %+v, want 2 live and 1 completed", st)
	}
}

// TestMergeHubConcurrent hammers one hub from 8 goroutines — the two
// partials of every round arrive from different goroutines, completed
// merges retire while others absorb — and demands every merged sum exact.
// Run under -race.
func TestMergeHubConcurrent(t *testing.T) {
	const workers, rounds, contribs = 8, 96, 4
	hub := &MergeHub{AllowTOFU: true, caps: hubCaps{live: 2 * rounds, done: 8, tombs: 2 * rounds}}
	nodes := [2]NodeSeal{newNodeSeal(t, 1, 2), newNodeSeal(t, 2, 2)}
	// Pin both identities first: two concurrent first uses of one node ID
	// would both be its "first".
	for i, n := range nodes {
		if _, err := hub.MergePartialSeal(hubSeal(t, n, "warm", uint64(i), 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	type job struct {
		round uint64
		seal  []byte
	}
	jobs := make([][]job, workers)
	for round := uint64(1); round <= rounds; round++ {
		for i, n := range nodes {
			w := (int(round) + i*(workers/2)) % workers
			jobs[w] = append(jobs[w], job{round, hubSeal(t, n, "svc", round, contribs, round)})
		}
	}
	var wg sync.WaitGroup
	completed := make([]int, workers)
	for w := range jobs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, j := range jobs[w] {
				reply, err := hub.MergePartialSeal(j.seal)
				if err != nil {
					t.Errorf("round %d: %v", j.round, err)
					continue
				}
				res, err := wire.DecodeMergeResult(reply)
				if err != nil {
					t.Errorf("round %d: %v", j.round, err)
					continue
				}
				if res.Merged < res.Expect {
					continue
				}
				completed[w]++
				for _, lane := range res.Sum {
					if lane != 2*contribs*j.round {
						t.Errorf("round %d merged sum %v, want %d in every lane", j.round, res.Sum, 2*contribs*j.round)
						break
					}
				}
				if res.Count != 2*contribs {
					t.Errorf("round %d merged cohort %d, want %d", j.round, res.Count, 2*contribs)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range completed {
		total += n
	}
	// The reply to whichever partial lands second shows the round
	// complete; when both land together, both replies may.
	if total < rounds {
		t.Fatalf("%d rounds reported complete, want at least %d", total, rounds)
	}
	st := hub.Stats()
	want := HubStats{
		Live:             2, // the two warm-up merges never complete
		Completed:        8,
		Retired:          rounds - 8,
		SealsAbsorbed:    2*rounds + 2,
		ContribsMerged:   2*rounds*contribs + 2,
		ContribsRejected: 2*rounds + 2,
	}
	if st != want {
		t.Fatalf("hub ledger = %+v, want %+v", st, want)
	}
}

// BenchmarkMergeHub is a coordinator's steady state: single-partial rounds
// of 128 contributions, each a first contact that completes and pushes the
// oldest completed merge out.
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
