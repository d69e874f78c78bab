// Package durable persists service.Registry state: a versioned snapshot
// plus a write-ahead log of the mutations since, so a restarted glimmerd
// recovers its open rounds, dedup sets, sealed sums, rejection counters,
// and ticket tables — and pre-crash sessions keep contributing without
// re-running the asymmetric grant exchange.
//
// Privacy boundary (the PrivTru caution): everything here is state the
// operator already observes in process memory — aggregate sums, dedup
// digests, counters, and the symmetric ticket session keys the server
// necessarily holds. Raw contributions, blinding masks, and device-side
// secrets are never serialized.
package durable

import (
	"errors"
	"fmt"

	"glimmers/internal/fixed"
	"glimmers/internal/service"
	"glimmers/internal/wire"
)

// snapshotMagic versions the snapshot encoding; a format change bumps it.
const snapshotMagic = "glimmers/snapshot/v1"

// ErrBadSnapshot reports an undecodable snapshot. Unlike a torn WAL tail
// this is never expected — snapshots are written to a temp file and
// renamed into place — so recovery fails loudly instead of truncating.
var ErrBadSnapshot = errors.New("durable: malformed snapshot")

const (
	digestLen  = 32
	keyLen     = 32
	maxLanes   = 1 << 20 // dimension sanity bound for decoders
	maxEntries = 1 << 22 // per-collection sanity bound for decoders
)

// EncodeSnapshot serializes a registry state and the WAL generation that
// starts after it. The encoding is deterministic for a deterministically
// exported state (service.Registry.ExportState sorts everything), which
// is what makes snapshot round-trips byte-identical.
func EncodeSnapshot(st service.RegistryState, generation uint64) []byte {
	w := wire.NewWriter()
	w.String(snapshotMagic)
	w.Uint64(generation)
	w.Uint64(st.Rejected)
	w.Uint32(uint32(len(st.Tenants)))
	for _, ts := range st.Tenants {
		w.String(ts.Name)
		w.Bytes(ts.ConfigDigest[:])
		w.Uint64(ts.Rejected)
		w.Uint32(uint32(len(ts.Rounds)))
		for _, rs := range ts.Rounds {
			w.Uint64(rs.Round)
			w.Byte(rs.Phase)
			w.Uint64(rs.Count)
			w.Uint64(rs.Rejected)
			w.Bytes(rs.Sum.AppendWire(nil))
			w.Bytes(appendDigests(nil, rs.Digests))
		}
		w.Uint32(uint32(len(ts.Tickets)))
		for _, tk := range ts.Tickets {
			appendTicket(w, tk)
		}
	}
	return w.Finish()
}

// DecodeSnapshot parses a snapshot, returning the state and the WAL
// generation to replay after it.
func DecodeSnapshot(data []byte) (service.RegistryState, uint64, error) {
	var st service.RegistryState
	r := wire.NewReader(data)
	if r.String() != snapshotMagic {
		return st, 0, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	generation := r.Uint64()
	st.Rejected = r.Uint64()
	nTenants := r.Uint32()
	if nTenants > maxEntries {
		return st, 0, fmt.Errorf("%w: tenant count %d", ErrBadSnapshot, nTenants)
	}
	for i := uint32(0); i < nTenants && r.Err() == nil; i++ {
		var ts service.TenantState
		ts.Name = r.String()
		if d := r.Bytes(); len(d) == digestLen {
			copy(ts.ConfigDigest[:], d)
		} else {
			return st, 0, fmt.Errorf("%w: config digest length %d", ErrBadSnapshot, len(d))
		}
		ts.Rejected = r.Uint64()
		nRounds := r.Uint32()
		if nRounds > maxEntries {
			return st, 0, fmt.Errorf("%w: round count %d", ErrBadSnapshot, nRounds)
		}
		for j := uint32(0); j < nRounds && r.Err() == nil; j++ {
			var rs service.RoundState
			rs.Round = r.Uint64()
			rs.Phase = r.Byte()
			if rs.Phase > service.RoundPhaseClosed {
				return st, 0, fmt.Errorf("%w: round phase %d", ErrBadSnapshot, rs.Phase)
			}
			rs.Count = r.Uint64()
			rs.Rejected = r.Uint64()
			var err error
			if rs.Sum, err = decodeVector(r.Bytes()); err != nil {
				return st, 0, err
			}
			if rs.Digests, err = decodeDigests(r.Bytes()); err != nil {
				return st, 0, err
			}
			// The count is the size of the dedup set; a round claiming
			// contributions it has no digests for was not written by Export.
			if rs.Count != uint64(len(rs.Digests)) {
				return st, 0, fmt.Errorf("%w: round %d counts %d contributions over %d digests",
					ErrBadSnapshot, rs.Round, rs.Count, len(rs.Digests))
			}
			ts.Rounds = append(ts.Rounds, rs)
		}
		nTickets := r.Uint32()
		if nTickets > maxEntries {
			return st, 0, fmt.Errorf("%w: ticket count %d", ErrBadSnapshot, nTickets)
		}
		for j := uint32(0); j < nTickets && r.Err() == nil; j++ {
			tk, err := readTicket(r)
			if err != nil {
				return st, 0, err
			}
			ts.Tickets = append(ts.Tickets, tk)
		}
		st.Tenants = append(st.Tenants, ts)
	}
	if err := r.Done(); err != nil {
		return service.RegistryState{}, 0, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return st, generation, nil
}

func appendDigests(dst []byte, ds [][32]byte) []byte {
	for i := range ds {
		dst = append(dst, ds[i][:]...)
	}
	return dst
}

func decodeDigests(b []byte) ([][32]byte, error) {
	if len(b)%digestLen != 0 {
		return nil, fmt.Errorf("%w: digest block length %d", ErrBadSnapshot, len(b))
	}
	n := len(b) / digestLen
	if n > maxEntries {
		return nil, fmt.Errorf("%w: digest count %d", ErrBadSnapshot, n)
	}
	out := make([][32]byte, n)
	for i := range out {
		copy(out[i][:], b[i*digestLen:])
	}
	return out, nil
}

func decodeVector(b []byte) (fixed.Vector, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("%w: lane block length %d", ErrBadSnapshot, len(b))
	}
	n := len(b) / 8
	if n > maxLanes {
		return nil, fmt.Errorf("%w: lane count %d", ErrBadSnapshot, n)
	}
	v := fixed.NewVector(n)
	fixed.AccumulateWireInto(v, b)
	return v, nil
}

func appendTicket(w *wire.Writer, tk service.TicketState) {
	w.Uint64(tk.ID)
	w.Bytes(tk.Key[:])
	w.Uint64(tk.RoundFirst)
	w.Uint64(tk.RoundLast)
	w.Uint64(uint64(tk.ExpiresUnix))
}

func readTicket(r *wire.Reader) (service.TicketState, error) {
	var tk service.TicketState
	tk.ID = r.Uint64()
	if k := r.Bytes(); len(k) == keyLen {
		copy(tk.Key[:], k)
	} else {
		return tk, fmt.Errorf("%w: ticket key length %d", ErrBadSnapshot, len(k))
	}
	tk.RoundFirst = r.Uint64()
	tk.RoundLast = r.Uint64()
	tk.ExpiresUnix = int64(r.Uint64())
	return tk, nil
}

// errBadRecord reports an undecodable (but CRC-valid) WAL record —
// version skew, not a torn write. Replay stops at it.
var errBadRecord = errors.New("durable: malformed WAL record")

// encodeRecord renders one journal record as a WAL payload: the kind byte
// (service.RecordKind's wire value) and the tenant name, then the kind's
// fields — the ticket for a grant, its ID for an eviction, otherwise the
// round and, for an accept, a dropout correction or a refusal, what it
// carries.
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
		appendTicket(w, rec.Ticket)
	case service.TicketEvicted:
		w.Uint64(rec.Ticket.ID)
	case service.BatchAccepted:
		w.Uint64(rec.Round)
		w.BytesPrefix(len(rec.Digests) * digestLen)
		for i := range rec.Digests {
			w.Raw(rec.Digests[i][:])
		}
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

// lanesField appends a vector as one framed field of raw big-endian
// lanes — byte-identical to w.Bytes(v.AppendWire(nil)).
func lanesField(w *wire.Writer, v fixed.Vector) {
	w.BytesPrefix(len(v) * 8)
	for _, r := range v {
		w.Uint64(uint64(r))
	}
}

// decodeRecord parses one WAL record payload; every record it accepts
// re-encodes to the identical bytes.
func decodeRecord(payload []byte) (service.Record, error) {
	r := wire.NewReader(payload)
	rec := service.Record{Kind: service.RecordKind(r.Byte()), Tenant: r.String()}
	var err error
	switch rec.Kind {
	case service.TicketGranted:
		rec.Ticket, err = readTicket(r)
	case service.TicketEvicted:
		rec.Ticket.ID = r.Uint64()
	case service.RoundCreated, service.RoundSealed, service.RoundClosed, service.RoundForgotten:
		rec.Round = r.Uint64()
	case service.BatchAccepted:
		rec.Round = r.Uint64()
		if rec.Digests, err = decodeDigests(r.Bytes()); err == nil {
			rec.Lanes, err = decodeVector(r.Bytes())
		}
	case service.DropoutCorrected:
		rec.Round = r.Uint64()
		rec.Lanes, err = decodeVector(r.Bytes())
	case service.Rejected:
		rec.Round = r.Uint64()
		rec.Level = service.RejectLevel(r.Byte())
		n := r.Uint64()
		if rec.Level > service.LevelRound || n > maxEntries {
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

// walkRecords is walkFrames over decoded records: a record that does not
// decode stops the walk as a tear does.
func walkRecords(data []byte, fn func(service.Record)) (good int64, torn bool) {
	return walkFrames(data, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err == nil {
			fn(rec)
		}
		return err
	})
}
