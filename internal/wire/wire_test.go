package wire

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"glimmers/internal/tee"
)

func TestRoundTripAllFieldTypes(t *testing.T) {
	msg := NewWriter().
		Bytes([]byte{1, 2, 3}).
		String("hello").
		Uint64(1<<63 + 7).
		Uint32(42).
		Byte(9).
		Bool(true).
		Bool(false).
		Uint64s([]uint64{5, 6, 7}).
		Finish()
	r := NewReader(msg)
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.Uint64(); got != 1<<63+7 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := r.Uint32(); got != 42 {
		t.Errorf("Uint32 = %d", got)
	}
	if got := r.Byte(); got != 9 {
		t.Errorf("Byte = %d", got)
	}
	if got := r.Bool(); !got {
		t.Error("Bool true read as false")
	}
	if got := r.Bool(); got {
		t.Error("Bool false read as true")
	}
	if got := r.Uint64s(); len(got) != 3 || got[0] != 5 || got[2] != 7 {
		t.Errorf("Uint64s = %v", got)
	}
	if err := r.Done(); err != nil {
		t.Errorf("Done = %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	msg := NewWriter().Bytes([]byte("payload")).Finish()
	for cut := 0; cut < len(msg); cut++ {
		r := NewReader(msg[:cut])
		r.Bytes()
		if err := r.Done(); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
}

func TestTrailingBytesDetected(t *testing.T) {
	msg := append(NewWriter().Uint64(1).Finish(), 0xff)
	r := NewReader(msg)
	r.Uint64()
	if err := r.Done(); !errors.Is(err, ErrTrailing) {
		t.Errorf("Done = %v, want ErrTrailing", err)
	}
}

func TestStickyErrors(t *testing.T) {
	r := NewReader([]byte{0, 0})
	_ = r.Uint64() // fails: truncated
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads stay failed and return zero values.
	if got := r.Uint32(); got != 0 {
		t.Errorf("read after error = %d", got)
	}
	if r.Bytes() != nil {
		t.Error("Bytes after error should be nil")
	}
}

func TestNonCanonicalBoolRejected(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("bool value 2 accepted — covert channel in boolean field")
	}
}

func TestOversizedFieldLengthRejected(t *testing.T) {
	msg := []byte{0xff, 0xff, 0xff, 0xff}
	r := NewReader(msg)
	r.Bytes()
	if r.Err() == nil {
		t.Fatal("absurd length prefix accepted")
	}
}

func TestUint64sLengthBomb(t *testing.T) {
	// A count claiming 2^31 elements with no data must fail fast, not
	// allocate.
	msg := NewWriter().Uint32(1 << 31).Finish()
	r := NewReader(msg)
	if got := r.Uint64s(); got != nil {
		t.Errorf("Uint64s = %v, want nil", got)
	}
	if r.Err() == nil {
		t.Fatal("length bomb accepted")
	}
}

func TestBytesReturnsCopy(t *testing.T) {
	msg := NewWriter().Bytes([]byte("abc")).Finish()
	r := NewReader(msg)
	got := r.Bytes()
	msg[5] = 'X' // mutate underlying buffer (offset 4 is length prefix end)
	if got[1] == 'X' {
		t.Fatal("decoded field aliases input buffer")
	}
}

func TestRemaining(t *testing.T) {
	msg := NewWriter().Uint32(1).Uint32(2).Finish()
	r := NewReader(msg)
	if r.Remaining() != 8 {
		t.Errorf("Remaining = %d, want 8", r.Remaining())
	}
	r.Uint32()
	if r.Remaining() != 4 {
		t.Errorf("Remaining = %d, want 4", r.Remaining())
	}
}

func TestQuoteCodecRoundTrip(t *testing.T) {
	// Its own trust root: internal/testbed imports wire (through service).
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	p, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	var q tee.Quote
	bin := tee.NewBinary("qc", "1", []byte("qc")).
		Define("quote", func(env *tee.Env, input []byte) ([]byte, error) {
			var err error
			q, err = env.NewQuote(input)
			return nil, err
		})
	e, err := p.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Call("quote", []byte("binding")); err != nil {
		t.Fatal(err)
	}
	encoded := EncodeQuote(q)
	decoded, err := DecodeQuote(encoded)
	if err != nil {
		t.Fatal(err)
	}
	v := &tee.QuoteVerifier{Root: as.Root()}
	if err := v.Verify(decoded); err != nil {
		t.Fatalf("decoded quote fails verification: %v", err)
	}
	if decoded.Report.Measurement != q.Report.Measurement {
		t.Fatal("measurement corrupted in codec")
	}
	// Any truncation of the encoding must fail decoding.
	for _, cut := range []int{0, 1, len(encoded) / 2, len(encoded) - 1} {
		if _, err := DecodeQuote(encoded[:cut]); err == nil {
			t.Errorf("truncated quote at %d decoded successfully", cut)
		}
	}
}

func TestQuoteCodecWrongFieldWidth(t *testing.T) {
	// A quote whose measurement field has the wrong width must be rejected.
	w := NewWriter()
	w.Bytes([]byte("short")) // measurement: wrong length
	for i := 0; i < 8; i++ {
		w.Bytes(nil)
	}
	if _, err := DecodeQuote(w.Finish()); err == nil {
		t.Fatal("malformed quote accepted")
	}
}

// Property: a writer sequence of arbitrary byte fields round trips.
func TestQuickBytesFieldsRoundTrip(t *testing.T) {
	f := func(fields [][]byte) bool {
		w := NewWriter()
		for _, fd := range fields {
			w.Bytes(fd)
		}
		r := NewReader(w.Finish())
		for _, fd := range fields {
			got := r.Bytes()
			if !bytes.Equal(got, fd) {
				return false
			}
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: appending any non-empty suffix breaks Done.
func TestQuickTrailingAlwaysDetected(t *testing.T) {
	f := func(payload, suffix []byte) bool {
		if len(suffix) == 0 {
			suffix = []byte{0}
		}
		msg := NewWriter().Bytes(payload).Finish()
		r := NewReader(append(msg, suffix...))
		r.Bytes()
		return r.Done() != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
