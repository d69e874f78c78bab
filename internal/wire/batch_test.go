package wire

import (
	"bytes"
	"errors"
	"testing"
)

// EncodeBatch frames items into one fresh batch message.
func EncodeBatch(items [][]byte) []byte {
	return AppendBatch(make([]byte, 0, EncodedBatchSize(items)), items)
}

// DecodeBatch reverses EncodeBatch. Every item is an independent copy.
func DecodeBatch(data []byte) ([][]byte, error) {
	items, err := decodeBatch(data, nil, false)
	if err != nil {
		return nil, err
	}
	return items, nil
}

func TestBatchRoundTrip(t *testing.T) {
	items := [][]byte{[]byte("one"), {}, []byte("three")}
	got, err := DecodeBatch(EncodeBatch(items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("len = %d, want %d", len(got), len(items))
	}
	for i := range items {
		if !bytes.Equal(got[i], items[i]) {
			t.Fatalf("item %d = %q, want %q", i, got[i], items[i])
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

func TestBatchItemsAreCopies(t *testing.T) {
	frame := EncodeBatch([][]byte{[]byte("abcd")})
	items, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-1] ^= 0xFF
	if !bytes.Equal(items[0], []byte("abcd")) {
		t.Fatal("decoded item aliases the frame buffer")
	}
}

func TestBatchRejectsOversizedCount(t *testing.T) {
	frame := NewWriter().Uint32(MaxBatchItems + 1).Finish()
	if _, err := DecodeBatch(frame); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
}

func TestBatchRejectsTrailingAndTruncated(t *testing.T) {
	frame := EncodeBatch([][]byte{[]byte("x")})
	if _, err := DecodeBatch(append(frame, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeBatch(frame[:len(frame)-1]); err == nil {
		t.Fatal("truncated batch accepted")
	}
}
