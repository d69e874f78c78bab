package service

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/xcrypto"
)

// oracle is the differential's independent party, now that a frame of one
// and a frame of N are one implementation: the acceptance rule of both wire
// variants in its documented order, written plainly with the copying
// decoders, the one-shot MAC, a map and AddInPlace — no scratch, view,
// arena, memo or keyed MAC state, nothing the ingest plan is built from.
type oracle struct {
	name    string
	dim     int
	round   uint64
	verify  *xcrypto.VerifyKey
	tickets map[uint64]testTicket // never expiring, as the fuzz table's are

	seen     map[[32]byte]bool
	sum      fixed.Vector
	rejected int
}

func (o *oracle) add(raw []byte) error {
	blinded, digest, err := o.check(raw)
	if err == nil && o.seen[digest] {
		err = ErrDuplicate
	}
	if err != nil {
		o.rejected++
		return err
	}
	o.seen[digest] = true
	o.sum.AddInPlace(blinded)
	return nil
}

func (o *oracle) check(raw []byte) (fixed.Vector, [32]byte, error) {
	var digest [32]byte
	if !glimmer.PeekContributionTicketed(raw) {
		sc, err := glimmer.DecodeSignedContribution(raw)
		switch {
		case err != nil:
			return nil, digest, fmt.Errorf("service: %w", err)
		case sc.ServiceName != o.name:
			return nil, digest, ErrWrongService
		case sc.Round != o.round:
			return nil, digest, ErrWrongRound
		case len(sc.Blinded) != o.dim:
			return nil, digest, ErrWrongDim
		case !o.verify.Verify(sc.SignedBytes(), sc.Signature): // nothing is vetted: every measurement is admitted
			return nil, digest, ErrBadSignature
		}
		return sc.Blinded, sha256.Sum256(raw), nil
	}
	tc, err := glimmer.DecodeTicketedContribution(raw)
	switch {
	case err != nil:
		return nil, digest, fmt.Errorf("service: %w", err)
	case tc.ServiceName != o.name:
		return nil, digest, ErrWrongService
	case tc.Round != o.round:
		return nil, digest, ErrWrongRound
	case len(tc.Blinded) != o.dim:
		return nil, digest, ErrWrongDim
	}
	tk, ok := o.tickets[tc.TicketID]
	switch {
	case !ok:
		return nil, digest, ErrUnknownTicket
	case tc.Round < tk.first || tc.Round > tk.last:
		return nil, digest, ErrTicketWindow
	case !xcrypto.VerifySessionMAC(&tk.key, tc.MACBytes(), tc.MAC):
		return nil, digest, ErrBadMAC
	}
	copy(digest[:], tc.MAC)
	return tc.Blinded, digest, nil
}

// ledgerJournal adds up what one round journals: the multiset of
// watermarked digests, the summed delta and the summed Rejected count. An
// unsealed round fed past the router appends no other kind.
type ledgerJournal struct {
	digests  map[[32]byte]int
	delta    fixed.Vector
	rejected int
}

func (j *ledgerJournal) Append(rec Record) {
	switch rec.Kind {
	case BatchAccepted:
		for _, d := range rec.Digests {
			j.digests[d]++
		}
		j.delta.AddInPlace(rec.Lanes)
	case Rejected:
		j.rejected += rec.Count
	}
}

// FuzzBatchMatchesPerItem holds ingest to framing invariance and to the
// reference oracle. The fuzzer composes a frame of up to 64 items, four
// input bytes each: which template — faultBatch's corpus, valid traffic
// under a second ticket, two distinct signed items — and one byte mutation
// (offset, XOR mask; a zero mask leaves the template intact, and picking a
// template twice plants a duplicate). The frame as one addBatchErrs call
// (Workers: 1, so chunk boundaries cannot reorder duplicates), as N frames
// of one and through the oracle must produce the identical error string per
// index, identical Count, Rejected and sum, and — on the two pipelines'
// journals — the digests, delta and refusal count the oracle accepted.
func FuzzBatchMatchesPerItem(f *testing.F) {
	const dim, round = 8, uint64(5)
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 1 << 32}
	second := testTicket{id: 9, key: xcrypto.SessionKey{0xC9}, first: 1, last: 1 << 32}
	narrow := testTicket{id: 8, key: xcrypto.SessionKey{0xB8}, first: 1, last: 2}
	tickets := map[uint64]testTicket{}
	for _, tk := range []testTicket{good, second, narrow} {
		tickets[tk.id] = tk
	}
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		f.Fatal(err)
	}
	signedRaw := func(lane0 fixed.Ring) []byte {
		sc := glimmer.SignedContribution{
			ServiceName: "batch.example", Round: round,
			Blinded: make(fixed.Vector, dim), Confidence: 1,
		}
		sc.Blinded[0] = lane0
		if sc.Signature, err = key.Sign(sc.SignedBytes()); err != nil {
			f.Fatal(err)
		}
		return glimmer.EncodeSignedContribution(sc)
	}
	templates := append(faultBatch(dim, round, good, narrow),
		ticketedRaw("batch.example", round, dim, 20, second),
		ticketedRaw("batch.example", round, dim, 21, second),
		signedRaw(77), signedRaw(78))

	intact := make([]byte, 0, 4*len(templates))
	for i := range templates {
		intact = append(intact, byte(i), 0, 0, 0)
	}
	f.Add(intact) // more seeds under testdata/fuzz

	pipeline := func(t *testing.T) (*Pipeline, *ledgerJournal) {
		r, m := testTenant(t, TenantConfig{
			Name: "batch.example", Verify: key.Public(), Dim: dim,
			Workers: 1, TicketPolicy: &TicketConfig{},
		})
		for _, tk := range tickets {
			m.cfg.tickets.install(tk.id, tk.key, tk.first, tk.last, 1<<62)
		}
		p := m.Round(round)
		j := &ledgerJournal{digests: map[[32]byte]int{}, delta: fixed.NewVector(dim)}
		r.SetJournal(j)
		return p, j
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := make([][]byte, 0, 64)
		for ; len(data) >= 4 && len(frame) < cap(frame); data = data[4:] {
			raw := append([]byte(nil), templates[int(data[0])%len(templates)]...)
			raw[(int(data[1])<<8|int(data[2]))%len(raw)] ^= data[3]
			frame = append(frame, raw)
		}
		want := &oracle{
			name: "batch.example", dim: dim, round: round, verify: key.Public(), tickets: tickets,
			seen: map[[32]byte]bool{}, sum: fixed.NewVector(dim),
		}
		framed, framedLedger := pipeline(t)
		single, singleLedger := pipeline(t)
		framedErrs := make([]error, len(frame))
		framed.addBatchErrs(frame, framedErrs)
		for i, raw := range frame {
			wantErr := fmt.Sprint(want.add(raw))
			if got := fmt.Sprint(framedErrs[i]); got != wantErr {
				t.Errorf("item %d: oracle err %s, addBatchErrs err %s", i, wantErr, got)
			}
			if got := fmt.Sprint(add(single, raw)[0]); got != wantErr {
				t.Errorf("item %d: oracle err %s, frame-of-one err %s", i, wantErr, got)
			}
		}
		for _, side := range []struct {
			how    string
			p      *Pipeline
			ledger *ledgerJournal
		}{{"one frame of N", framed, framedLedger}, {"N frames of one", single, singleLedger}} {
			if side.p.Count() != len(want.seen) || side.p.Rejected() != want.rejected {
				t.Errorf("%s: tallies (%d, %d), oracle (%d, %d)",
					side.how, side.p.Count(), side.p.Rejected(), len(want.seen), want.rejected)
			}
			if side.p.Sum().Digest() != want.sum.Digest() {
				t.Errorf("%s: sum diverges from the oracle's", side.how)
			}
			if side.ledger.rejected != want.rejected {
				t.Errorf("%s: journaled %d refusals, oracle refused %d", side.how, side.ledger.rejected, want.rejected)
			}
			if side.ledger.delta.Digest() != want.sum.Digest() {
				t.Errorf("%s: journaled deltas do not add up to the oracle's sum", side.how)
			}
			if len(side.ledger.digests) != len(want.seen) {
				t.Errorf("%s: journaled %d distinct digests, oracle accepted %d",
					side.how, len(side.ledger.digests), len(want.seen))
			}
			for d, n := range side.ledger.digests {
				if n != 1 || !want.seen[d] {
					t.Errorf("%s: digest %x journaled %d times, oracle accepted: %v", side.how, d[:4], n, want.seen[d])
				}
			}
		}
	})
}

// TestChunkedJournalMatchesOracle is the journaled, fanned-out side of
// FuzzBatchMatchesPerItem: a round with Workers: 4 (so 8 shards) takes
// frames large enough to split into four chunks, drawn with replacement
// from a pool of valid and refused items, so byte-identical duplicates land
// within one frame, across its chunks, and across frames. Which copy of a
// duplicate wins across chunks is a race, so only order-free outputs are
// held to the oracle: Sum, Count, Rejected, each frame's accepted count,
// every non-duplicate refusal, and the journal's digest multiset and delta.
// The recorded journal, replayed into a fresh registry, must give the same
// Sum and Count: the live sum and the journaled delta agree.
func TestChunkedJournalMatchesOracle(t *testing.T) {
	const dim, round = 8, uint64(5)
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 1 << 32}
	narrow := testTicket{id: 8, key: xcrypto.SessionKey{0xB8}, first: 1, last: 2}
	tickets := map[uint64]testTicket{good.id: good, narrow.id: narrow}
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		t.Fatal(err)
	}
	pool := faultBatch(dim, round, good, narrow)
	for i := 0; i < 40; i++ {
		pool = append(pool, ticketedRaw("batch.example", round, dim, 100+i, good))
	}
	for i := 0; i < 8; i++ {
		sc := glimmer.SignedContribution{
			ServiceName: "batch.example", Round: round,
			Blinded: make(fixed.Vector, dim), Confidence: 1,
		}
		sc.Blinded[i%dim] = fixed.Ring(1000 + i)
		if sc.Signature, err = key.Sign(sc.SignedBytes()); err != nil {
			t.Fatal(err)
		}
		pool = append(pool, glimmer.EncodeSignedContribution(sc))
	}
	cfg := TenantConfig{
		Name: "batch.example", Verify: key.Public(), Dim: dim,
		Workers: 4, TicketPolicy: &TicketConfig{},
	}
	tenant := func() (*Registry, *Pipeline) {
		r, m := testTenant(t, cfg)
		for _, tk := range tickets {
			m.cfg.tickets.install(tk.id, tk.key, tk.first, tk.last, 1<<62)
		}
		return r, m.Round(round)
	}

	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r, p := tenant()
		tape := &tapeJournal{}
		r.SetJournal(tape)
		want := &oracle{
			name: "batch.example", dim: dim, round: round, verify: key.Public(), tickets: tickets,
			seen: map[[32]byte]bool{}, sum: fixed.NewVector(dim),
		}
		for f := 0; f < 4; f++ {
			frame := make([][]byte, 96)
			for i := range frame {
				frame[i] = append([]byte(nil), pool[rng.Intn(len(pool))]...)
			}
			errs := make([]error, len(frame))
			p.addBatchErrs(frame, errs)
			wantAccepted, gotAccepted := 0, 0
			for i, raw := range frame {
				wantErr := want.add(raw)
				if wantErr == nil {
					wantAccepted++
				}
				if errs[i] == nil {
					gotAccepted++
				}
				switch {
				case wantErr == nil || errors.Is(wantErr, ErrDuplicate):
					if errs[i] != nil && !errors.Is(errs[i], ErrDuplicate) {
						t.Errorf("seed %d frame %d item %d: oracle %v, chunked %v", seed, f, i, wantErr, errs[i])
					}
				case fmt.Sprint(errs[i]) != fmt.Sprint(wantErr):
					t.Errorf("seed %d frame %d item %d: oracle %v, chunked %v", seed, f, i, wantErr, errs[i])
				}
			}
			if gotAccepted != wantAccepted {
				t.Errorf("seed %d frame %d: accepted %d, oracle %d", seed, f, gotAccepted, wantAccepted)
			}
		}
		if p.Count() != len(want.seen) || p.Rejected() != want.rejected {
			t.Errorf("seed %d: tallies (%d, %d), oracle (%d, %d)", seed, p.Count(), p.Rejected(), len(want.seen), want.rejected)
		}
		if p.Sum().Digest() != want.sum.Digest() {
			t.Errorf("seed %d: sum diverges from the oracle's", seed)
		}

		ledger := &ledgerJournal{digests: map[[32]byte]int{}, delta: fixed.NewVector(dim)}
		for _, rec := range tape.recs {
			ledger.Append(rec) // BatchAccepted and Rejected only: the round predates the journal
		}
		if ledger.delta.Digest() != want.sum.Digest() {
			t.Errorf("seed %d: journaled deltas do not add up to the oracle's sum", seed)
		}
		if ledger.rejected != want.rejected {
			t.Errorf("seed %d: journaled %d refusals, oracle refused %d", seed, ledger.rejected, want.rejected)
		}
		if len(ledger.digests) != len(want.seen) {
			t.Errorf("seed %d: journaled %d distinct digests, oracle accepted %d", seed, len(ledger.digests), len(want.seen))
		}
		for d, n := range ledger.digests {
			if n != 1 || !want.seen[d] {
				t.Errorf("seed %d: digest %x journaled %d times, oracle accepted: %v", seed, d[:4], n, want.seen[d])
			}
		}

		fresh, replayed := tenant()
		tape.replayInto(t, fresh)
		if replayed.Count() != p.Count() || replayed.Sum().Digest() != p.Sum().Digest() {
			t.Errorf("seed %d: replayed journal gives count %d, live %d (sums equal: %v)",
				seed, replayed.Count(), p.Count(), replayed.Sum().Digest() == p.Sum().Digest())
		}
	}
}
