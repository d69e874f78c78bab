package durable

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glimmers/internal/service"
	"glimmers/internal/wire"
)

// Golden vectors: the snapshot and WAL encodings are what lets a newer
// glimmerd recover state a crashed older one left behind. The fixtures in
// testdata/ are the frozen bytes; a codec change that alters them breaks
// cross-version recovery and must bump the magic, not silently reshape
// the encoding. Regenerate deliberately with
// GLIMMERS_UPDATE_GOLDEN=1 go test ./internal/durable.

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return data
}

func maybeUpdateGolden(t *testing.T, name string, data []byte) bool {
	t.Helper()
	if os.Getenv("GLIMMERS_UPDATE_GOLDEN") == "" {
		return false
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", name), []byte(hex.EncodeToString(data)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return true
}

// appendFrame frames one record payload onto dst.
func appendFrame(dst, payload []byte) []byte {
	hdr := frameHeader(payload)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// goldenWAL builds the frozen record sequence (driveStore's mutations) as
// a complete WAL image.
func goldenWAL() []byte {
	img := append([]byte(nil), walMagic...)
	c := &recordCollector{}
	driveStore(c)
	for _, p := range c.payloads {
		img = appendFrame(img, p)
	}
	return img
}

func TestGoldenSnapshot(t *testing.T) {
	got := fixtureImage(t, 7)
	if maybeUpdateGolden(t, "snapshot.hex", got) {
		t.Skip("updated testdata/snapshot.hex")
	}
	want := readGolden(t, "snapshot.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding changed:\n got: %x\nwant: %x", got, want)
	}
	reg := newTestRegistry(t)
	gen, err := loadImageBytes(reg, want)
	if err != nil {
		t.Fatal(err)
	}
	st := reg.ExportState()
	if gen != 7 || len(st.Tenants) != 1 || st.Tenants[0].Name != testTenant {
		t.Fatalf("loaded gen=%d tenants=%+v", gen, st.Tenants)
	}
	if len(st.Tenants[0].Rounds) != 2 || len(st.Tenants[0].Tickets) != 2 {
		t.Fatalf("loaded rounds/tickets = %d/%d", len(st.Tenants[0].Rounds), len(st.Tenants[0].Tickets))
	}
}

func TestGoldenWAL(t *testing.T) {
	got := goldenWAL()
	if maybeUpdateGolden(t, "wal.hex", got) {
		t.Skip("updated testdata/wal.hex")
	}
	want := readGolden(t, "wal.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL encoding changed:\n got: %x\nwant: %x", got, want)
	}
	// The frozen image replays into exactly the state driveStore
	// describes.
	reg := newTestRegistry(t)
	records := 0
	good, torn := walkRecords(want, func(rec service.Record) {
		if err := reg.Apply(rec); err != nil {
			t.Errorf("replay error: %v", err)
		}
		records++
	})
	if torn || good != int64(len(want)) || records != 12 {
		t.Fatalf("walk: good=%d torn=%v records=%d", good, torn, records)
	}
	checkReplayedState(t, reg)
}

// TestUpdateFuzzSeeds regenerates the checked-in seed corpora alongside
// the golden fixtures (GLIMMERS_UPDATE_GOLDEN=1): the 10-second CI fuzz
// smokes start from known-interesting shapes — a valid snapshot, a valid
// WAL, truncations and tears — instead of from scratch.
func TestUpdateFuzzSeeds(t *testing.T) {
	if os.Getenv("GLIMMERS_UPDATE_GOLDEN") == "" {
		t.Skip("set GLIMMERS_UPDATE_GOLDEN=1 to regenerate seed corpora")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := fixtureImage(t, 7)
	write("FuzzRecoverImage", "seed_valid", snap)
	write("FuzzRecoverImage", "seed_truncated", snap[:len(snap)/2])
	write("FuzzRecoverImage", "seed_magic_only", []byte(snapshotMagic))
	wal := goldenWAL()
	write("FuzzWALReplay", "seed_valid", wal)
	write("FuzzWALReplay", "seed_torn", append(append([]byte(nil), wal...), 0x00, 0x00, 0x00, 0x40, 0xDE))
	write("FuzzWALReplay", "seed_magic_only", []byte(walMagic))
}

// recordCollector implements service.Journal with the encoder
// Store.Append uses, collecting raw payloads instead of writing frames
// to disk — the golden WAL and the live store stay in lockstep by
// construction.
type recordCollector struct{ payloads [][]byte }

func (c *recordCollector) Append(rec service.Record) {
	w := wire.NewWriter()
	encodeRecord(w, rec)
	c.payloads = append(c.payloads, w.Finish())
}

// walkWAL walks a WAL held in memory with the walker Recover uses.
func walkWAL(data []byte, fn func(payload []byte) error) (int64, error) {
	return walk(bytes.NewReader(data), int64(len(data)), make([]byte, len(walMagic)), walMagic, fn)
}

// decodeRecord decodes one payload into buffers of its own, for tests
// that keep the records they decode.
func decodeRecord(payload []byte) (service.Record, error) {
	return new(recordDecoder).decode(payload)
}

// walkRecords streams a WAL held in memory through the walk Recover uses,
// handing fn each decoded record; a record that does not decode stops the
// walk as a tear does.
func walkRecords(data []byte, fn func(service.Record)) (good int64, torn bool) {
	good, err := walkWAL(data, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err == nil {
			fn(rec)
		}
		return err
	})
	return good, err != nil
}
