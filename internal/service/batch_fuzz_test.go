package service

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/xcrypto"
)

// oracle is the differential's independent party, now that Add and
// AddBatchErrs are one implementation: the acceptance rule of both wire
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

// ledgerJournal adds up what a bare pipeline journals: the multiset of
// watermarked digests, the summed delta and the summed Rejected n. A bare,
// unsealed pipeline calls no other Journal method.
type ledgerJournal struct {
	Journal
	digests  map[[32]byte]int
	delta    fixed.Vector
	rejected int
}

func (j *ledgerJournal) BatchAccepted(_ string, _ uint64, digests [][32]byte, delta fixed.Vector) {
	for _, d := range digests {
		j.digests[d]++
	}
	j.delta.AddInPlace(delta)
}

func (j *ledgerJournal) Rejected(_ string, _ uint64, _ RejectLevel, n int) { j.rejected += n }

// FuzzBatchMatchesPerItem holds ingest to framing invariance and to the
// reference oracle. The fuzzer composes a frame of up to 64 items, four
// input bytes each: which template — faultBatch's corpus, valid traffic
// under a second ticket, two distinct signed items — and one byte mutation
// (offset, XOR mask; a zero mask leaves the template intact, and picking a
// template twice plants a duplicate). The frame as one AddBatchErrs call
// (Workers: 1, so chunk boundaries cannot reorder duplicates), as N Add
// calls and through the oracle must produce the identical error string per
// index, identical Count, Rejected and sum, and — on the two pipelines'
// journals — the digests, delta and refusal count the oracle accepted.
func FuzzBatchMatchesPerItem(f *testing.F) {
	const dim, round = 8, uint64(5)
	tbl := NewTicketTable(TicketConfig{})
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 1 << 32}
	second := testTicket{id: 9, key: xcrypto.SessionKey{0xC9}, first: 1, last: 1 << 32}
	narrow := testTicket{id: 8, key: xcrypto.SessionKey{0xB8}, first: 1, last: 2}
	tickets := map[uint64]testTicket{}
	for _, tk := range []testTicket{good, second, narrow} {
		tbl.Install(tk.id, tk.key, tk.first, tk.last, 1<<62)
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

	pipeline := func() (*Pipeline, *ledgerJournal) {
		j := &ledgerJournal{digests: map[[32]byte]int{}, delta: fixed.NewVector(dim)}
		return NewPipeline(PipelineConfig{
			ServiceName: "batch.example", Verify: key.Public(), Dim: dim, Round: round,
			Tickets: tbl, Workers: 1, Shards: 2, Journal: j,
		}), j
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
		framed, framedLedger := pipeline()
		single, singleLedger := pipeline()
		framedErrs := make([]error, len(frame))
		framed.AddBatchErrs(frame, framedErrs)
		for i, raw := range frame {
			wantErr := fmt.Sprint(want.add(raw))
			if got := fmt.Sprint(framedErrs[i]); got != wantErr {
				t.Errorf("item %d: oracle err %s, AddBatchErrs err %s", i, wantErr, got)
			}
			if got := fmt.Sprint(single.Add(raw)); got != wantErr {
				t.Errorf("item %d: oracle err %s, Add err %s", i, wantErr, got)
			}
		}
		for _, side := range []struct {
			how    string
			p      *Pipeline
			ledger *ledgerJournal
		}{{"one AddBatchErrs", framed, framedLedger}, {"N Adds", single, singleLedger}} {
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
