package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The merge plane is cross-process protocol surface: a coordinator on one
// version must parse seals from nodes on another. Fixtures are frozen the
// same way durable's are — regenerate deliberately with
// GLIMMERS_UPDATE_GOLDEN=1 go test ./internal/wire.

func maybeUpdateGolden(t *testing.T, name string, data []byte) bool {
	t.Helper()
	if os.Getenv("GLIMMERS_UPDATE_GOLDEN") == "" {
		return false
	}
	if err := os.WriteFile(filepath.Join("testdata", name), []byte(hex.EncodeToString(data)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return true
}

// goldenPartialSeal covers every field shape: a multi-lane sum and a
// non-empty rejection count.
func goldenPartialSeal() PartialSeal {
	return PartialSeal{
		Service:     "iot.example",
		Round:       9,
		NodeID:      2,
		ShardCount:  3,
		Measurement: bytes.Repeat([]byte{0x22}, MeasurementLen),
		NodeKey:     []byte{0x30, 0x59, 0x01, 0x02, 0x03},
		Count:       2,
		Rejected:    1,
		Sum:         []uint64{5, 0xFFFFFFFFFFFFFFFF, 7},
		Signature:   []byte{0xAA, 0xBB, 0xCC, 0xDD},
	}
}

func goldenMergeResult() MergeResult {
	return MergeResult{
		Service:  "iot.example",
		Round:    9,
		Expect:   3,
		Merged:   2,
		Count:    41,
		Rejected: 5,
		Refused:  1,
		Sum:      []uint64{5, 0xFFFFFFFFFFFFFFFF, 7},
	}
}

func TestGoldenPartialSeal(t *testing.T) {
	got := EncodePartialSeal(goldenPartialSeal())
	if maybeUpdateGolden(t, "partial_seal.hex", got) {
		t.Skip("updated golden fixture")
	}
	want := readGolden(t, "partial_seal.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("partial seal encoding changed:\n got: %x\nwant: %x", got, want)
	}
	dec, err := DecodePartialSeal(want)
	if err != nil {
		t.Fatal(err)
	}
	if re := EncodePartialSeal(dec); !bytes.Equal(re, want) {
		t.Fatalf("decode/encode not canonical")
	}
}

func TestGoldenPartialSealPreimage(t *testing.T) {
	pre := goldenPartialSeal().SignedBytes()
	if maybeUpdateGolden(t, "partial_seal_preimage.hex", pre) {
		t.Skip("updated golden fixture")
	}
	want := readGolden(t, "partial_seal_preimage.hex")
	if !bytes.Equal(pre, want) {
		t.Fatalf("partial seal signing preimage changed:\n got: %x\nwant: %x", pre, want)
	}
	// The preimage must differ from the transport encoding (domain tag in
	// front, signature absent) so a seal can never be replayed as its own
	// signing input.
	if bytes.Equal(pre, EncodePartialSeal(goldenPartialSeal())) {
		t.Fatal("signing preimage equals transport encoding")
	}
}

func TestGoldenMergeResult(t *testing.T) {
	got := EncodeMergeResult(goldenMergeResult())
	if maybeUpdateGolden(t, "merge_result.hex", got) {
		t.Skip("updated golden fixture")
	}
	want := readGolden(t, "merge_result.hex")
	if !bytes.Equal(got, want) {
		t.Fatalf("merge result encoding changed:\n got: %x\nwant: %x", got, want)
	}
	dec, err := DecodeMergeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	if re := EncodeMergeResult(dec); !bytes.Equal(re, want) {
		t.Fatalf("decode/encode not canonical")
	}
}

// TestPartialSealDecodeRefusals pins the structural refusal surface the
// fuzz target also walks: truncation, trailing bytes, a wrong-length
// measurement, and a seal of the v1 format, which carried the round's
// dedup digests (partial_seal_v1.hex, the v1 golden seal).
func TestPartialSealDecodeRefusals(t *testing.T) {
	seal := EncodePartialSeal(goldenPartialSeal())
	for name, data := range map[string][]byte{
		"truncated": seal[:len(seal)-2],
		"trailing":  append(append([]byte(nil), seal...), 0x00),
		"garbage":   {0xFF, 0xFF, 0xFF, 0xFF},
		"empty":     {},
		"v1":        readGolden(t, "partial_seal_v1.hex"),
	} {
		if _, err := DecodePartialSeal(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}

	shortMeas := goldenPartialSeal()
	shortMeas.Measurement = shortMeas.Measurement[:8]
	if _, err := DecodePartialSeal(EncodePartialSeal(shortMeas)); err == nil {
		t.Error("accepted seal with short measurement")
	}

	if _, err := DecodeMergeResult([]byte{0xFF, 0xFF}); err == nil {
		t.Error("accepted garbage merge result")
	}
	mr := EncodeMergeResult(goldenMergeResult())
	if _, err := DecodeMergeResult(mr[:len(mr)-1]); err == nil {
		t.Error("accepted truncated merge result")
	}
}

// An empty partial (node owned the round but nothing arrived) is legal:
// zero count, zero sum lanes still present.
func TestPartialSealEmpty(t *testing.T) {
	empty := PartialSeal{
		Service:     "iot.example",
		Round:       1,
		ShardCount:  2,
		Measurement: make([]byte, MeasurementLen),
		Sum:         make([]uint64, 4),
	}
	dec, err := DecodePartialSeal(EncodePartialSeal(empty))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Count != 0 || len(dec.Sum) != 4 {
		t.Fatalf("empty seal decoded as count=%d lanes=%d", dec.Count, len(dec.Sum))
	}
}
