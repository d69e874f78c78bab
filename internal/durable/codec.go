// Package durable persists service.Registry state as journal records: a
// write-ahead log of every mutation, and an image — the snapshot — of the
// registry as the records that rebuild it, in one framing of one codec.
// A restarted glimmerd recovers its open rounds, dedup sets, sealed sums,
// rejection counters and ticket tables, and pre-crash sessions keep
// contributing without re-running the asymmetric grant exchange.
//
// Privacy boundary (the PrivTru caution): everything here is state the
// operator already observes in process memory — aggregate sums, dedup
// digests, counters, and the symmetric ticket session keys the server
// necessarily holds. Raw contributions, blinding masks, and device-side
// secrets are never serialized; a frame's summed delta (for a frame of
// one, one device's blinded vector) stays in the WAL until a snapshot.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"glimmers/internal/fixed"
	"glimmers/internal/service"
	"glimmers/internal/wire"
)

// snapshotMagic versions the image encoding; a format change bumps it.
// An image is the magic, the big-endian generation of the WAL that
// follows it, then service.RegistryState.Records in WAL frames.
const snapshotMagic = "glimmers/snapshot/v2"

// ErrBadSnapshot reports an image that does not load: a bad header, a torn
// or undecodable frame, a record Apply refuses, or an image cut short of
// its closing record. Unlike a torn WAL tail this is never expected —
// images are written to a temp file, synced and renamed into place — so
// recovery fails loudly instead of skipping it.
var ErrBadSnapshot = errors.New("durable: malformed snapshot")

const (
	digestLen = 32
	keyLen    = 32
	maxLanes  = 1 << 20 // dimension sanity bound for decoders
)

// imageDigests caps the digests of one accept record in an image: a wider
// round is split across records, so 32 MiB of digests plus maxLanes lanes
// always fit maxFramePayload. A variable so tests can split small rounds.
var imageDigests = 1 << 20

// writeImage encodes st as the image that precedes WAL generation gen.
func writeImage(w io.Writer, st service.RegistryState, gen uint64) error {
	bw := bufio.NewWriterSize(w, walkBuffer)
	bw.WriteString(snapshotMagic)
	bw.Write(binary.BigEndian.AppendUint64(nil, gen))
	e := wire.NewWriter()
	frame := func(rec service.Record) {
		e.Reset()
		encodeRecord(e, rec)
		hdr := frameHeader(e.Finish())
		bw.Write(hdr[:])
		bw.Write(e.Finish())
	}
	for _, rec := range st.Records() {
		for rec.Kind == service.BatchAccepted && len(rec.Digests) > imageDigests {
			head := rec
			head.Digests = rec.Digests[:imageDigests]
			frame(head)
			rec.Digests, rec.Lanes = rec.Digests[imageDigests:], fixed.NewVector(len(rec.Lanes))
		}
		frame(rec)
	}
	return bw.Flush()
}

// loadImage applies an image of size bytes, read from r, to reg and
// returns the WAL generation that follows it. Every failure is
// ErrBadSnapshot. Records closes an image with the registry's refusal
// counter, so an image cut at a frame boundary fails too.
func loadImage(reg *service.Registry, r io.Reader, size int64) (uint64, error) {
	hdr := make([]byte, len(snapshotMagic)+8)
	closed := false
	_, err := walk(r, size, hdr, snapshotMagic, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		switch {
		case err != nil:
			return err
		case closed:
			return errors.New("record after the closing one")
		}
		closed = rec.Kind == service.Rejected && rec.Level == service.LevelRegistry
		return reg.Apply(rec)
	})
	if err == nil && !closed {
		err = errTorn
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return binary.BigEndian.Uint64(hdr[len(snapshotMagic):]), nil
}

func decodeDigests(b []byte) ([][32]byte, error) {
	if len(b)%digestLen != 0 {
		return nil, fmt.Errorf("digest block length %d", len(b))
	}
	out := make([][32]byte, len(b)/digestLen)
	for i := range out {
		copy(out[i][:], b[i*digestLen:])
	}
	return out, nil
}

func decodeVector(b []byte) (fixed.Vector, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("lane block length %d", len(b))
	}
	n := len(b) / 8
	if n > maxLanes {
		return nil, fmt.Errorf("lane count %d", n)
	}
	v := fixed.NewVector(n)
	fixed.AccumulateWireInto(v, b)
	return v, nil
}

// errBadRecord reports an undecodable (but CRC-valid) record — version
// skew, not a torn write. WAL replay stops at it; an image fails.
var errBadRecord = errors.New("durable: malformed record")

// encodeRecord renders one journal record as a frame payload: the kind byte
// (service.RecordKind's wire value) and the tenant name, then the kind's
// fields — the ticket for a grant, its ID for an eviction, the config
// digest for a TenantBound, otherwise the round and, for an accept, a
// dropout correction or a refusal, what it carries.
//
// Digests and lanes stream straight into the writer (BytesPrefix + Raw —
// both field lengths are known up front), so the hot journal path renders
// a record in one pass with no staging copy and no allocation. The bytes
// produced are identical to framing a pre-staged block with Bytes.
func encodeRecord(w *wire.Writer, rec service.Record) {
	w.Byte(byte(rec.Kind))
	w.String(rec.Tenant)
	switch rec.Kind {
	case service.TicketGranted:
		tk := rec.Ticket
		w.Uint64(tk.ID).Bytes(tk.Key[:]).Uint64(tk.RoundFirst).Uint64(tk.RoundLast).Uint64(uint64(tk.ExpiresUnix))
	case service.TicketEvicted:
		w.Uint64(rec.Ticket.ID)
	case service.TenantBound:
		digestsField(w, rec.Digests)
	case service.BatchAccepted:
		w.Uint64(rec.Round)
		digestsField(w, rec.Digests)
		lanesField(w, rec.Lanes)
	case service.DropoutCorrected:
		w.Uint64(rec.Round)
		lanesField(w, rec.Lanes)
	case service.Rejected:
		w.Uint64(rec.Round)
		w.Byte(byte(rec.Level))
		w.Uint64(uint64(rec.Count))
	default:
		w.Uint64(rec.Round)
	}
}

// digestsField appends digests as one framed field of raw bytes.
func digestsField(w *wire.Writer, ds [][32]byte) {
	w.BytesPrefix(len(ds) * digestLen)
	for i := range ds {
		w.Raw(ds[i][:])
	}
}

// lanesField appends a vector as one framed field of raw big-endian
// lanes — byte-identical to w.Bytes(v.AppendWire(nil)).
func lanesField(w *wire.Writer, v fixed.Vector) {
	w.BytesPrefix(len(v) * 8)
	for _, r := range v {
		w.Uint64(uint64(r))
	}
}

// decodeRecord parses one record payload; every record it accepts
// re-encodes to the identical bytes. Nothing it returns aliases payload.
func decodeRecord(payload []byte) (service.Record, error) {
	r := wire.NewReader(payload)
	rec := service.Record{Kind: service.RecordKind(r.Byte()), Tenant: r.String()}
	var err error
	switch rec.Kind {
	case service.TicketGranted:
		tk := &rec.Ticket
		tk.ID = r.Uint64()
		if k := r.BytesView(); len(k) == keyLen {
			copy(tk.Key[:], k)
		} else {
			err = fmt.Errorf("ticket key length %d", len(k))
		}
		tk.RoundFirst, tk.RoundLast, tk.ExpiresUnix = r.Uint64(), r.Uint64(), int64(r.Uint64())
	case service.TicketEvicted:
		rec.Ticket.ID = r.Uint64()
	case service.TenantBound:
		if rec.Digests, err = decodeDigests(r.BytesView()); err == nil && len(rec.Digests) != 1 {
			err = fmt.Errorf("tenant bound by %d digests", len(rec.Digests))
		}
	case service.RoundCreated, service.RoundSealed, service.RoundClosed, service.RoundForgotten:
		rec.Round = r.Uint64()
	case service.BatchAccepted:
		rec.Round = r.Uint64()
		if rec.Digests, err = decodeDigests(r.BytesView()); err == nil {
			rec.Lanes, err = decodeVector(r.BytesView())
		}
	case service.DropoutCorrected:
		rec.Round = r.Uint64()
		rec.Lanes, err = decodeVector(r.BytesView())
	case service.Rejected:
		rec.Round = r.Uint64()
		rec.Level = service.RejectLevel(r.Byte())
		n := r.Uint64()
		if rec.Level > service.LevelRound || n > math.MaxInt {
			err = fmt.Errorf("reject level %d count %d", rec.Level, n)
		}
		rec.Count = int(n)
	default:
		err = fmt.Errorf("unknown kind %d", rec.Kind)
	}
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return service.Record{}, fmt.Errorf("%w: %v", errBadRecord, err)
	}
	return rec, nil
}
