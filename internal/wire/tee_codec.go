package wire

import (
	"fmt"

	"glimmers/internal/tee"
)

// Codecs for tee attestation structures, so every protocol ships quotes the
// same way.

// AppendQuote encodes a quote into w.
func AppendQuote(w *Writer, q tee.Quote) {
	w.Bytes(q.Report.Measurement[:])
	w.Bytes(q.Report.Signer[:])
	w.Bytes(q.Report.Platform[:])
	w.Bytes(q.Report.Data[:])
	w.Bytes(q.Report.MAC[:])
	w.Bytes(q.Cert.PlatformID[:])
	w.Bytes(q.Cert.AttestKey)
	w.Bytes(q.Cert.Signature)
	w.Bytes(q.Signature)
}

// ReadQuote decodes a quote from r.
func ReadQuote(r *Reader) (tee.Quote, error) {
	var q tee.Quote
	if err := copyExact(q.Report.Measurement[:], r.Bytes(), "measurement"); err != nil {
		return q, err
	}
	if err := copyExact(q.Report.Signer[:], r.Bytes(), "signer"); err != nil {
		return q, err
	}
	if err := copyExact(q.Report.Platform[:], r.Bytes(), "platform"); err != nil {
		return q, err
	}
	if err := copyExact(q.Report.Data[:], r.Bytes(), "report data"); err != nil {
		return q, err
	}
	if err := copyExact(q.Report.MAC[:], r.Bytes(), "mac"); err != nil {
		return q, err
	}
	if err := copyExact(q.Cert.PlatformID[:], r.Bytes(), "cert platform"); err != nil {
		return q, err
	}
	q.Cert.AttestKey = r.Bytes()
	q.Cert.Signature = r.Bytes()
	q.Signature = r.Bytes()
	return q, r.Err()
}

func copyExact(dst, src []byte, what string) error {
	if len(src) != len(dst) {
		return fmt.Errorf("wire: %s field is %d bytes, want %d", what, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}
