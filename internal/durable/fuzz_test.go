package durable

import (
	"bytes"
	"reflect"
	"testing"

	"glimmers/internal/service"
	"glimmers/internal/wire"
)

// fuzzRegistry builds the canonical test tenant without *testing.T (the
// fuzz body gets *testing.T but the seed setup does not need it).
func fuzzRegistry() *service.Registry {
	reg := service.NewRegistry(64)
	_, err := reg.AddTenant(service.TenantConfig{
		Name:         testTenant,
		Dim:          4,
		Workers:      1,
		TicketPolicy: &service.TicketConfig{MaxTickets: 8, TTL: 3600, Now: testClock},
	})
	if err != nil {
		panic(err)
	}
	return reg
}

// FuzzDecodeSnapshot: arbitrary bytes must never panic the decoder, and
// any state that decodes must survive a re-encode/re-decode round trip.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, gen, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		re := EncodeSnapshot(st, gen)
		st2, gen2, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if gen2 != gen || !reflect.DeepEqual(st, st2) {
			t.Fatalf("snapshot round trip diverged:\n st: %+v\nst2: %+v", st, st2)
		}
	})
}

// FuzzWALReplay: an arbitrary WAL image replayed into a live registry —
// exactly the walk Recover performs — must never panic, whatever rounds,
// tickets, or counters the records claim; and every record that decodes
// must re-encode to the identical payload, so the codec has one spelling
// per record.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := fuzzRegistry()
		good, _ := walkFrames(data, func(payload []byte) error {
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			w := wire.NewWriter()
			encodeRecord(w, rec)
			if !bytes.Equal(w.Finish(), payload) {
				t.Fatalf("record %+v re-encodes to other bytes:\n got %x\nwant %x", rec, w.Finish(), payload)
			}
			_ = reg.Apply(rec) // a mismatch is counted, not fatal, as in Recover
			return nil
		})
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d out of range", good)
		}
		// The replayed registry must still export and encode cleanly.
		if _, _, err := DecodeSnapshot(EncodeSnapshot(reg.ExportState(), 1)); err != nil {
			t.Fatalf("replayed registry exports an undecodable snapshot: %v", err)
		}
	})
}
