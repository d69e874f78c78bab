package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// orderRecorder implements service.Journal to capture the replayed
// record sequence: which record kinds landed in the WAL, for which
// round, in what order.
type orderRecorder struct {
	kinds  []string
	rounds []uint64
	counts []int // accepted digests or refused submissions per record (0 for the other kinds)
}

var orderKinds = [...]string{
	service.RoundCreated: "created", service.RoundSealed: "sealed", service.RoundClosed: "closed",
	service.RoundForgotten: "forgotten", service.BatchAccepted: "accepted", service.DropoutCorrected: "dropout",
	service.Rejected: "rejected", service.TicketGranted: "ticket", service.TicketEvicted: "evicted",
}

func (o *orderRecorder) Append(rec service.Record) {
	kind, n := orderKinds[rec.Kind], len(rec.Digests)
	if rec.Kind == service.Rejected {
		kind, n = kind+"/"+[...]string{"registry", "manager", "round"}[rec.Level], rec.Count
	}
	o.kinds = append(o.kinds, kind)
	o.rounds = append(o.rounds, rec.Round)
	o.counts = append(o.counts, n)
}

// orderRaws fabricates n distinct MAC'd contributions for one round,
// sealed under a ticket already installed in tbl.
func orderRaws(n, dim int, round uint64, key *xcrypto.SessionKey) [][]byte {
	raws := make([][]byte, n)
	aead := xcrypto.NewSessionAEAD(key)
	for i := range raws {
		tc := glimmer.TicketedContribution{
			ServiceName: testTenant,
			Round:       round,
			TicketID:    7,
			Blinded:     make(fixed.Vector, dim),
			Confidence:  1,
		}
		for j := range tc.Blinded {
			tc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + round*31 + uint64(j))
		}
		raws[i] = glimmer.SealTicketedContribution(tc, aead)
	}
	return raws
}

// TestJournalOrderUnderConcurrentIngest is the ordering property of the
// group-commit path: however many goroutines feed frames across
// however many shards, every accept record a round journals lands in the
// WAL before that round's seal record (staging assigns sequence numbers
// under one lock, and Seal drains in-flight work before journaling), so
// a replayed WAL rebuilds exactly the sealed aggregate. And a raced
// accept landing after its round's RoundForgotten — the one interleaving
// the manager lock cannot rule out — must drop harmlessly on replay,
// never resurrecting the forgotten round.
func TestJournalOrderUnderConcurrentIngest(t *testing.T) {
	const dim, perRound, batches = 4, 64, 8
	dir := t.TempDir()
	reg := service.NewRegistry(64)
	hosted, err := reg.AddTenant(service.TenantConfig{
		Name:         testTenant,
		Dim:          dim,
		Workers:      2,
		TicketPolicy: &service.TicketConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	skey := sessionKey(0xA7)
	grantTicket(t, reg, service.TicketState{ID: 7, Key: skey, RoundFirst: 1, RoundLast: 1 << 32, ExpiresUnix: 1 << 62})
	s, err := OpenConfig(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recover(reg); err != nil {
		t.Fatal(err)
	}
	m := hosted.Manager()

	// Rounds 1 and 2 ingest concurrently, interleaved batch by batch,
	// while a forget storm churns rounds 10+ through create → ingest →
	// forget — the eviction path racing the accept path.
	var wg sync.WaitGroup
	for _, round := range []uint64{1, 2} {
		raws := orderRaws(perRound, dim, round, &skey)
		per := perRound / batches
		for b := 0; b < batches; b++ {
			wg.Add(1)
			go func(round uint64, part [][]byte) {
				defer wg.Done()
				_, errs := reg.IngestBatch(part)
				for _, err := range errs {
					if err != nil {
						t.Errorf("round %d ingest: %v", round, err)
					}
				}
			}(round, raws[b*per:(b+1)*per])
		}
	}
	for storm := uint64(10); storm < 14; storm++ {
		wg.Add(1)
		go func(round uint64) {
			defer wg.Done()
			m.Round(round)
			reg.IngestBatch(orderRaws(4, dim, round, &skey))
			m.Forget(round)
		}(storm)
	}
	wg.Wait()
	if err := m.Seal(1); err != nil {
		t.Fatal(err)
	}
	if err := m.Seal(2); err != nil {
		t.Fatal(err)
	}

	// The raced interleaving Forget's lock cannot rule out: an accept for
	// a round whose RoundForgotten is already in the journal. Synthesized
	// deterministically (the storm above only sometimes produces it).
	m.Forget(2)
	s.Append(service.Record{Kind: service.BatchAccepted, Tenant: testTenant, Round: 2, Digests: [][32]byte{digest(0xEE)}, Lanes: fixed.Vector{9, 9, 9, 9}})

	p1, ok := m.Lookup(1)
	if !ok {
		t.Fatal("round 1 vanished")
	}
	liveSum := p1.Sum().Digest()
	liveCount := p1.Count()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Walk the WAL: per-round accepts strictly precede the seal.
	data, err := os.ReadFile(filepath.Join(dir, "wal.1"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &orderRecorder{}
	if _, torn := walkRecords(data, rec.Append); torn {
		t.Fatal("clean close left a torn WAL")
	}
	sealedAt := map[uint64]int{}
	forgottenAt := map[uint64]int{}
	acceptedBySeal := map[uint64]int{}
	lateAccepts := 0
	for i, kind := range rec.kinds {
		round := rec.rounds[i]
		switch kind {
		case "sealed":
			sealedAt[round] = i
		case "forgotten":
			forgottenAt[round] = i
		case "accepted":
			if at, forgotten := forgottenAt[round]; forgotten && i > at {
				// The raced post-forget record: exempt from the seal
				// ordering (the round is gone); replay must drop it.
				lateAccepts++
				continue
			}
			if at, sealed := sealedAt[round]; sealed && i > at {
				t.Errorf("record %d: accept for round %d after its seal at %d", i, round, at)
			} else if !sealed {
				acceptedBySeal[round] += rec.counts[i]
			}
		case "created":
			if at, sealed := sealedAt[round]; sealed && i > at {
				t.Errorf("record %d: created for round %d after its seal at %d", i, round, at)
			}
		}
	}
	for _, round := range []uint64{1, 2} {
		if _, ok := sealedAt[round]; !ok {
			t.Fatalf("round %d has no seal record", round)
		}
		if acceptedBySeal[round] != perRound {
			t.Errorf("round %d: %d accepts before the seal, want %d", round, acceptedBySeal[round], perRound)
		}
	}
	if lateAccepts == 0 {
		t.Fatal("the synthesized accept-after-forget never landed in the WAL")
	}

	// Replay into a fresh registry: the sealed rounds come back exact and
	// no forgotten round is resurrected by its late accepts.
	regB := newTestRegistry(t)
	replayErrs := 0
	if _, torn := walkRecords(data, func(rec service.Record) {
		if regB.Apply(rec) != nil {
			replayErrs++
		}
	}); torn {
		t.Fatal("replay walk torn")
	}
	if replayErrs != 0 {
		t.Errorf("replay errors: %d", replayErrs)
	}
	tn, _ := regB.Tenant(testTenant)
	mb := tn.Manager()
	r1, ok := mb.Lookup(1)
	if !ok {
		t.Fatal("replay lost sealed round 1")
	}
	if r1.Count() != liveCount || r1.Sum().Digest() != liveSum {
		t.Errorf("replayed round 1 = (%d, %s), live (%d, %s)", r1.Count(), r1.Sum().Digest(), liveCount, liveSum)
	}
	if _, ok := mb.Lookup(2); ok {
		t.Error("replay resurrected forgotten round 2 from its late accept")
	}
	for storm := uint64(10); storm < 14; storm++ {
		if _, ok := mb.Lookup(storm); ok {
			t.Errorf("replay resurrected forgotten storm round %d", storm)
		}
	}
}

// TestRefusalsJournaledOncePerFrame: a frame books its refusals once per
// level it touched, however many items it refused — a client that proved
// nothing must not buy a WAL record per junk item — and the round's go
// behind the frame's watermark. Recovery restores the three counters.
func TestRefusalsJournaledOncePerFrame(t *testing.T) {
	const dim, round, junkItems = 4, uint64(2), 65536
	dir := t.TempDir()
	s := openManual(t, dir)
	reg := newTestRegistry(t)
	skey := sessionKey(0xA7)
	grantTicket(t, reg, service.TicketState{ID: 7, Key: skey, RoundFirst: 1, RoundLast: 4, ExpiresUnix: testClock() + 3600})
	reg.SetJournal(s)

	junk := make([][]byte, junkItems)
	for i := range junk {
		junk[i] = []byte{0xFF, 0xFF, byte(i >> 8), byte(i)}
	}
	if accepted, _ := reg.IngestBatch(junk); accepted != 0 {
		t.Fatalf("junk frame: %d accepted", accepted)
	}

	raws := orderRaws(3, dim, round, &skey)
	if err := reg.Ingest(raws[0]); err != nil { // round 2 goes live
		t.Fatal(err)
	}
	flipMAC := func(raw []byte) []byte {
		out := append([]byte(nil), raw...)
		out[len(out)-1] ^= 0xFF
		return out
	}
	mixed := [][]byte{
		junk[0], // registry: unroutable
		wire.NewWriter().String("nobody.example").Finish(),               // registry: unknown tenant
		append(wire.NewWriter().String(testTenant).Finish(), 0x00, 0x00), // manager: no round to route by
		flipMAC(orderRaws(1, dim, 3, &skey)[0]),                          // manager: a new round must verify first
		raws[1],                                                          // accepted
		append([]byte(nil), raws[1]...),                                  // round: duplicate
		flipMAC(raws[2]),                                                 // round: bad MAC
		orderRaws(1, dim+1, round, &skey)[0],                             // round: wrong dimension
	}
	accepted, errs := reg.IngestBatch(mixed)
	if accepted != 1 || errs[4] != nil {
		t.Fatalf("mixed frame: %d accepted, errs %v", accepted, errs)
	}
	tn, _ := reg.Tenant(testTenant)
	p, _ := tn.Manager().Lookup(round)
	live := [3]int{reg.Rejected(), tn.Manager().Rejected(), p.Rejected()}
	if want := [3]int{junkItems + 2, 2, 3}; live != want {
		t.Fatalf("live refusal counters %v, want %v", live, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "wal.1"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &orderRecorder{}
	if _, torn := walkRecords(data, rec.Append); torn {
		t.Fatal("clean close left a torn WAL")
	}
	var got []string
	var ns []int
	for i, kind := range rec.kinds {
		if kind != "created" {
			got, ns = append(got, kind), append(ns, rec.counts[i])
		}
	}
	// The junk frame; the warming Ingest; then the mixed frame, which books
	// the registry's refusals before it routes, the round's behind the
	// watermark, and the manager's when the tenant's share has settled.
	wantKinds := []string{"rejected/registry", "accepted", "rejected/registry", "accepted", "rejected/round", "rejected/manager"}
	wantNs := []int{junkItems, 1, 2, 1, 3, 2}
	if len(got) != len(wantKinds) {
		t.Fatalf("WAL records %v, want %v", got, wantKinds)
	}
	for i := range wantKinds {
		if got[i] != wantKinds[i] || ns[i] != wantNs[i] {
			t.Errorf("WAL record %d: %s n=%d, want %s n=%d", i, got[i], ns[i], wantKinds[i], wantNs[i])
		}
	}

	regB, sB, _ := recoverInto(t, dir)
	defer sB.Close()
	tnB, _ := regB.Tenant(testTenant)
	pB, ok := tnB.Manager().Lookup(round)
	if !ok {
		t.Fatal("round 2 not recovered")
	}
	if recovered := [3]int{regB.Rejected(), tnB.Manager().Rejected(), pB.Rejected()}; recovered != live {
		t.Errorf("recovered refusal counters %v, live %v", recovered, live)
	}
	if pB.Count() != 2 {
		t.Errorf("recovered round holds %d, want 2", pB.Count())
	}
}

// signedRaws fabricates n distinct contributions in the signed wire variant
// for one round. They are unsigned: the test tenant verifies nothing (see
// newTestRegistry), and durable state does not depend on keys.
func signedRaws(n, dim int, round uint64, salt int) [][]byte {
	raws := make([][]byte, n)
	for i := range raws {
		sc := glimmer.SignedContribution{
			ServiceName: testTenant,
			Round:       round,
			Blinded:     make(fixed.Vector, dim),
			Confidence:  1,
		}
		for j := range sc.Blinded {
			sc.Blinded[j] = fixed.Ring(uint64(salt+i)*1000003 + round*31 + uint64(j))
		}
		raws[i] = glimmer.EncodeSignedContribution(sc)
	}
	return raws
}

// TestSignedFrameOneWatermark: the signed variant journals as the ticketed
// one does — a frame of N signed items stages exactly one BatchAccepted
// carrying N digests and their summed delta, not N records of one — so a
// recovery of that WAL exports state byte-identical to the live registry's,
// and a frame staged but unflushed when the process dies is lost whole: none
// of its items is remembered, and its resend is accepted in full.
func TestSignedFrameOneWatermark(t *testing.T) {
	const dim, round, n = 4, uint64(3), 24
	dir := t.TempDir()
	s := openManual(t, dir)
	reg := newTestRegistry(t)
	reg.SetJournal(s)

	flushed, staged := signedRaws(n, dim, round, 0), signedRaws(n, dim, round, 1000)
	if accepted, errs := reg.IngestBatch(flushed); accepted != n {
		t.Fatalf("first frame: %d of %d accepted, errs %v", accepted, n, errs)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	live := encodeImage(reg.Records(), 1)
	if accepted, errs := reg.IngestBatch(staged); accepted != n {
		t.Fatalf("second frame: %d of %d accepted, errs %v", accepted, n, errs)
	}
	s.Abandon() // the second frame's watermark never left the staging buffer

	data, err := os.ReadFile(filepath.Join(dir, "wal.1"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &orderRecorder{}
	if _, torn := walkRecords(data, rec.Append); torn {
		t.Fatal("an abandoned store left a torn WAL")
	}
	if len(rec.kinds) != 2 || rec.kinds[0] != "created" || rec.kinds[1] != "accepted" || rec.counts[1] != n {
		t.Fatalf("WAL holds %v with counts %v, want [created accepted] with one watermark of %d digests",
			rec.kinds, rec.counts, n)
	}

	regB, sB, stats := recoverInto(t, dir)
	defer sB.Close()
	if stats.Records != 2 || stats.ReplayErrors != 0 {
		t.Fatalf("recovery replayed %d records with %d errors, want 2 and 0", stats.Records, stats.ReplayErrors)
	}
	if recovered := encodeImage(regB.Records(), 1); !bytes.Equal(recovered, live) {
		t.Fatal("recovered state differs from the live registry's at the flush")
	}
	if accepted, errs := regB.IngestBatch(staged); accepted != n {
		t.Errorf("resend of the lost frame: %d of %d accepted, errs %v", accepted, n, errs)
	}
	if accepted, _ := regB.IngestBatch(flushed); accepted != 0 {
		t.Errorf("replay of the flushed frame: %d accepted, want every item a duplicate", accepted)
	}
}
