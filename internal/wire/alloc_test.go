package wire

import (
	"bytes"
	"testing"

	"glimmers/internal/race"
)

// The ingest hot path decodes every contribution with a stack Reader and
// caller-provided scratch; these guards pin the zero-allocation contract
// so a regression fails the build, not a profile three PRs later.

func allocGuard(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	if got := testing.AllocsPerRun(200, fn); got > want {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, got, want)
	}
}

func TestReaderScalarReadsAllocFree(t *testing.T) {
	msg := NewWriter().Uint64(7).Uint32(9).Byte(1).Bool(true).Finish()
	var r Reader
	allocGuard(t, "scalar reads", 0, func() {
		r.Reset(msg)
		if r.Uint64() != 7 || r.Uint32() != 9 || r.Byte() != 1 || !r.Bool() {
			t.Fatal("wrong values")
		}
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWriterUint64sGrowsOnce: a counted sequence costs an empty writer one
// buffer allocation, however long it is.
func TestWriterUint64sGrowsOnce(t *testing.T) {
	vs := make([]uint64, 64)
	allocGuard(t, "Uint64s into an empty writer", 1, func() {
		var w Writer
		if len(w.Uint64s(vs).Finish()) != 4+8*len(vs) {
			t.Fatal("wrong length")
		}
	})
}

func TestReaderViewReadsAllocFree(t *testing.T) {
	msg := NewWriter().Bytes([]byte("view me")).Bytes([]byte("skip me")).Finish()
	var r Reader
	allocGuard(t, "BytesView+SkipBytes", 0, func() {
		r.Reset(msg)
		if v := r.BytesView(); !bytes.Equal(v, []byte("view me")) {
			t.Fatalf("view = %q", v)
		}
		r.SkipBytes()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWriterResetReusesBuffer(t *testing.T) {
	w := NewWriter()
	w.Bytes(make([]byte, 512))
	first := w.Finish()
	w.Reset()
	allocGuard(t, "Writer.Reset encode", 0, func() {
		w.Reset()
		w.Uint64(1)
		w.Bytes(first[:100])
		if len(w.Finish()) != 8+4+100 {
			t.Fatal("wrong length")
		}
	})
}

func TestDecodeBatchIntoViewsAndScratchReuse(t *testing.T) {
	items := [][]byte{[]byte("alpha"), {}, []byte("gamma")}
	frame := EncodeBatch(items)
	scratch := make([][]byte, 0, 8)
	var got [][]byte
	var err error
	allocGuard(t, "DecodeBatchInto", 0, func() {
		got, err = DecodeBatchInto(frame, scratch)
		if err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != 3 || !bytes.Equal(got[0], items[0]) || !bytes.Equal(got[2], items[2]) {
		t.Fatalf("got %q", got)
	}
	// Views alias the frame: mutating the frame must show through, which
	// is exactly why callers keep the frame alive until processing ends.
	frame[len(frame)-1] ^= 0xFF
	if bytes.Equal(got[2], items[2]) {
		t.Fatal("DecodeBatchInto copied; expected views")
	}
}

func TestEncodedBatchSize(t *testing.T) {
	for _, items := range [][][]byte{nil, {{}}, {[]byte("ab"), []byte("cdef"), {}}} {
		if got, want := EncodedBatchSize(items), len(EncodeBatch(items)); got != want {
			t.Errorf("EncodedBatchSize = %d, want %d", got, want)
		}
	}
}

func TestAppendBatchMatchesEncodeBatch(t *testing.T) {
	for _, items := range [][][]byte{nil, {{}}, {[]byte("ab"), []byte("cdef"), {}}} {
		prefix := []byte("prefix")
		got := AppendBatch(append([]byte(nil), prefix...), items)
		want := append(append([]byte(nil), prefix...), EncodeBatch(items)...)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendBatch = %x, want %x", got, want)
		}
	}
}

// TestDecodeBatchIntoClearsScratchOnError pins the retention contract: a
// failed decode must not leave views into the frame buffer behind in the
// reusable scratch array.
func TestDecodeBatchIntoClearsScratchOnError(t *testing.T) {
	frame := append(EncodeBatch([][]byte{[]byte("keepalive"), []byte("x")}), 0xEE) // trailing byte
	scratch := make([][]byte, 0, 8)
	if _, err := DecodeBatchInto(frame, scratch); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	for i, v := range scratch[:cap(scratch)] {
		if v != nil {
			t.Fatalf("scratch[%d] still holds a view after failed decode", i)
		}
	}
}
