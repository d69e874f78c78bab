package durable

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glimmers/internal/fixed"
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
	got := EncodeSnapshot(testState(t), 7)
	if maybeUpdateGolden(t, "snapshot.hex", got) {
		t.Skip("updated testdata/snapshot.hex")
	}
	want := readGolden(t, "snapshot.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding changed:\n got: %x\nwant: %x", got, want)
	}
	st, gen, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 7 || len(st.Tenants) != 1 || st.Tenants[0].Name != testTenant {
		t.Fatalf("decoded gen=%d tenants=%+v", gen, st.Tenants)
	}
	if len(st.Tenants[0].Rounds) != 2 || len(st.Tenants[0].Tickets) != 2 {
		t.Fatalf("decoded rounds/tickets = %d/%d", len(st.Tenants[0].Rounds), len(st.Tenants[0].Tickets))
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
	rj := reg.ReplayJournal(func(err error) { t.Errorf("replay error: %v", err) })
	records := 0
	good, torn := walkFrames(want, func(p []byte) error {
		if err := applyRecord(p, rj); err != nil {
			return err
		}
		records++
		return nil
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
	snap := EncodeSnapshot(testState(t), 7)
	write("FuzzDecodeSnapshot", "seed_valid", snap)
	write("FuzzDecodeSnapshot", "seed_truncated", snap[:len(snap)/2])
	write("FuzzDecodeSnapshot", "seed_magic_only", []byte("\x00\x00\x00\x14"+snapshotMagic))
	wal := goldenWAL()
	write("FuzzWALReplay", "seed_valid", wal)
	write("FuzzWALReplay", "seed_torn", append(append([]byte(nil), wal...), 0x00, 0x00, 0x00, 0x40, 0xDE))
	write("FuzzWALReplay", "seed_magic_only", walMagic)
}

// recordCollector implements service.Journal with the same encoders
// Store.append uses, collecting raw payloads instead of writing frames
// to disk — the golden WAL and the live store stay in lockstep by
// construction.
type recordCollector struct{ payloads [][]byte }

func (c *recordCollector) add(build func(w *wire.Writer)) {
	w := wire.NewWriter()
	build(w)
	c.payloads = append(c.payloads, append([]byte(nil), w.Finish()...))
}

func (c *recordCollector) RoundCreated(tenant string, round uint64) {
	c.add(func(w *wire.Writer) { encodeRound(w, recRoundCreated, tenant, round) })
}

func (c *recordCollector) RoundSealed(tenant string, round uint64) {
	c.add(func(w *wire.Writer) { encodeRound(w, recRoundSealed, tenant, round) })
}

func (c *recordCollector) RoundClosed(tenant string, round uint64) {
	c.add(func(w *wire.Writer) { encodeRound(w, recRoundClosed, tenant, round) })
}

func (c *recordCollector) RoundForgotten(tenant string, round uint64) {
	c.add(func(w *wire.Writer) { encodeRound(w, recRoundForgotten, tenant, round) })
}

func (c *recordCollector) BatchAccepted(tenant string, round uint64, ds [][32]byte, delta fixed.Vector) {
	c.add(func(w *wire.Writer) { encodeAccepted(w, tenant, round, ds, delta) })
}

func (c *recordCollector) DropoutCorrected(tenant string, round uint64, mask fixed.Vector) {
	c.add(func(w *wire.Writer) { encodeDropout(w, tenant, round, mask) })
}

func (c *recordCollector) Rejected(tenant string, round uint64, level service.RejectLevel, n int) {
	c.add(func(w *wire.Writer) { encodeRejected(w, tenant, round, level, n) })
}

func (c *recordCollector) TicketGranted(tenant string, tk service.TicketState) {
	c.add(func(w *wire.Writer) { encodeTicketGranted(w, tenant, tk) })
}

func (c *recordCollector) TicketEvicted(tenant string, id uint64) {
	c.add(func(w *wire.Writer) { encodeTicketEvicted(w, tenant, id) })
}
