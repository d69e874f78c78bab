package wire

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden vectors: the wire format is the public, auditable contract of
// §4.1 — services, Glimmers, and auditors on different versions must parse
// each other's bytes. The fixtures in testdata/ are the frozen encodings;
// a codec change that alters them is a cross-version compatibility break
// and must bump the protocol, not silently reshape the bytes.

func readGolden(t testing.TB, name string) []byte {
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

// goldenKitchenSink builds one message using every writer primitive.
func goldenKitchenSink() []byte {
	return NewWriter().
		String("glimmers/golden/v1").
		Bytes([]byte{0xDE, 0xAD, 0xBE, 0xEF}).
		Uint64(0x0102030405060708).
		Uint32(0x0A0B0C0D).
		Byte(0x7F).
		Bool(true).
		Uint64s([]uint64{1, 2, 0xFFFFFFFFFFFFFFFF}).
		Finish()
}

func TestGoldenKitchenSink(t *testing.T) {
	want := readGolden(t, "kitchen_sink.hex")
	got := goldenKitchenSink()
	if !bytes.Equal(got, want) {
		t.Fatalf("writer output changed:\n got: %x\nwant: %x", got, want)
	}
	// Decode the frozen bytes with every matching reader primitive.
	r := NewReader(want)
	if s := r.String(); s != "glimmers/golden/v1" {
		t.Errorf("string = %q", s)
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{0xDE, 0xAD, 0xBE, 0xEF}) {
		t.Errorf("bytes = %x", b)
	}
	if v := r.Uint64(); v != 0x0102030405060708 {
		t.Errorf("uint64 = %x", v)
	}
	if v := r.Uint32(); v != 0x0A0B0C0D {
		t.Errorf("uint32 = %x", v)
	}
	if v := r.Byte(); v != 0x7F {
		t.Errorf("byte = %x", v)
	}
	if v := r.Bool(); !v {
		t.Errorf("bool = false")
	}
	vs := r.Uint64s()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 0xFFFFFFFFFFFFFFFF {
		t.Errorf("uint64s = %v", vs)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// goldenBatchItems is the frozen batch fixture's content, including the
// tricky shapes: an empty item and a binary one.
func goldenBatchItems() [][]byte {
	return [][]byte{
		[]byte("alpha"),
		{},
		{0x00, 0x01, 0x02, 0xFF},
	}
}

func TestGoldenBatch(t *testing.T) {
	want := readGolden(t, "batch.hex")
	got := EncodeBatch(goldenBatchItems())
	if !bytes.Equal(got, want) {
		t.Fatalf("batch encoding changed:\n got: %x\nwant: %x", got, want)
	}
	items, err := DecodeBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	wantItems := goldenBatchItems()
	if len(items) != len(wantItems) {
		t.Fatalf("decoded %d items, want %d", len(items), len(wantItems))
	}
	for i := range items {
		if !bytes.Equal(items[i], wantItems[i]) {
			t.Errorf("item %d = %x, want %x", i, items[i], wantItems[i])
		}
	}
}
