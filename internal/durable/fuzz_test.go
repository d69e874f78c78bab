package durable

import (
	"bytes"
	"errors"
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

// FuzzRecoverImage: arbitrary image bytes, streamed through the walk
// Recover applies an image with, must load or fail with ErrBadSnapshot,
// and never panic.
func FuzzRecoverImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := loadImageBytes(fuzzRegistry(), data); err != nil && !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("image failed with %v, want ErrBadSnapshot", err)
		}
	})
}

// FuzzWALReplay: an arbitrary WAL image replayed into a live registry —
// exactly the walk Recover performs, one decoder's buffers reused across
// it — must never panic, whatever rounds, tickets, or counters the records
// claim; and every record that decodes must re-encode to the identical
// payload, so the codec has one spelling per record.
func FuzzWALReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := fuzzRegistry()
		var d recordDecoder
		good, _ := walkWAL(data, func(payload []byte) error {
			rec, err := d.decode(payload)
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
		// The replayed registry's image must load and export the same image.
		img := encodeImage(reg.Records(), 1)
		again := fuzzRegistry()
		if _, err := loadImageBytes(again, img); err != nil {
			t.Fatalf("replayed registry writes an image that does not load: %v", err)
		}
		if re := encodeImage(again.Records(), 1); !bytes.Equal(re, img) {
			t.Fatalf("image round trip diverged:\n got %x\nwant %x", re, img)
		}
	})
}
