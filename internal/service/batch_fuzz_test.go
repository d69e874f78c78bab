package service

import (
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/xcrypto"
)

// FuzzBatchMatchesPerItem is the differential target between the two
// ingest paths: the per-item path (Add, the reference) and the batch plan
// (AddBatchErrs at Workers: 1, so chunk boundaries cannot reorder
// duplicates). The fuzzer composes a frame of up to 64 items, four input
// bytes each: which template — faultBatch's corpus, valid traffic under a
// second ticket, one ECDSA-signed item — and one byte mutation (offset,
// XOR mask; a zero mask leaves the template intact, and picking a template
// twice plants a duplicate). Both paths must produce the identical error
// string per index, and identical Count, Rejected and sum.
func FuzzBatchMatchesPerItem(f *testing.F) {
	const dim, round = 8, uint64(5)
	tbl := NewTicketTable(TicketConfig{})
	good := testTicket{id: 7, key: xcrypto.SessionKey{0xA7}, first: 1, last: 1 << 32}
	second := testTicket{id: 9, key: xcrypto.SessionKey{0xC9}, first: 1, last: 1 << 32}
	narrow := testTicket{id: 8, key: xcrypto.SessionKey{0xB8}, first: 1, last: 2}
	for _, tk := range []testTicket{good, second, narrow} {
		tbl.Install(tk.id, tk.key, tk.first, tk.last, 1<<62)
	}
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		f.Fatal(err)
	}
	sc := glimmer.SignedContribution{
		ServiceName: "batch.example", Round: round,
		Blinded: make(fixed.Vector, dim), Confidence: 1,
	}
	sc.Blinded[0] = 77
	if sc.Signature, err = key.Sign(sc.SignedBytes()); err != nil {
		f.Fatal(err)
	}
	templates := append(faultBatch(dim, round, good, narrow),
		ticketedRaw("batch.example", round, dim, 20, second),
		ticketedRaw("batch.example", round, dim, 21, second),
		glimmer.EncodeSignedContribution(sc))

	intact := make([]byte, 0, 4*len(templates))
	for i := range templates {
		intact = append(intact, byte(i), 0, 0, 0)
	}
	f.Add(intact) // more seeds under testdata/fuzz

	pipeline := func() *Pipeline {
		return NewPipeline(PipelineConfig{
			ServiceName: "batch.example", Verify: key.Public(), Dim: dim, Round: round,
			Tickets: tbl, Workers: 1, Shards: 2,
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := make([][]byte, 0, 64)
		for ; len(data) >= 4 && len(frame) < cap(frame); data = data[4:] {
			raw := append([]byte(nil), templates[int(data[0])%len(templates)]...)
			raw[(int(data[1])<<8|int(data[2]))%len(raw)] ^= data[3]
			frame = append(frame, raw)
		}
		ref, got := pipeline(), pipeline()
		gotErrs := make([]error, len(frame))
		got.AddBatchErrs(frame, gotErrs)
		for i, raw := range frame {
			want := ref.Add(raw)
			if (want == nil) != (gotErrs[i] == nil) || want != nil && want.Error() != gotErrs[i].Error() {
				t.Errorf("item %d: per-item err %v, batch err %v", i, want, gotErrs[i])
			}
		}
		if ref.Count() != got.Count() || ref.Rejected() != got.Rejected() {
			t.Errorf("tallies diverge: per-item (%d, %d), batch (%d, %d)",
				ref.Count(), ref.Rejected(), got.Count(), got.Rejected())
		}
		if ref.Sum().Digest() != got.Sum().Digest() {
			t.Error("sums diverge between per-item and batch paths")
		}
	})
}
