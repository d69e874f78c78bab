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

// WAL record kinds. The payload of every record starts with the kind
// byte and the tenant name; the rest is kind-specific.
const (
	recRoundCreated byte = iota + 1
	recRoundSealed
	recRoundClosed
	recRoundForgotten
	recAccepted
	recDropoutCorrected
	recRejected
	recTicketGranted
	recTicketEvicted
)

// errBadRecord reports an undecodable (but CRC-valid) WAL record —
// version skew, not a torn write. Replay stops at it.
var errBadRecord = errors.New("durable: malformed WAL record")

func encodeRound(w *wire.Writer, kind byte, tenant string, round uint64) {
	w.Byte(kind)
	w.String(tenant)
	w.Uint64(round)
}

// The accepted/dropout encoders stream their nested digest/lane fields
// straight into the writer (BytesPrefix + Raw — both field lengths are
// known up front), so the hot journal path renders records in one pass
// with no staging copy and no allocation. The bytes produced are
// identical to framing a pre-staged block with Bytes.

// lanesField appends a vector as one framed field of raw big-endian
// lanes — byte-identical to w.Bytes(v.AppendWire(nil)).
func lanesField(w *wire.Writer, v fixed.Vector) {
	w.BytesPrefix(len(v) * 8)
	for _, r := range v {
		w.Uint64(uint64(r))
	}
}

func encodeAccepted(w *wire.Writer, tenant string, round uint64, digests [][32]byte, delta fixed.Vector) {
	w.Byte(recAccepted)
	w.String(tenant)
	w.Uint64(round)
	w.BytesPrefix(len(digests) * digestLen)
	for i := range digests {
		w.Raw(digests[i][:])
	}
	lanesField(w, delta)
}

func encodeDropout(w *wire.Writer, tenant string, round uint64, mask fixed.Vector) {
	w.Byte(recDropoutCorrected)
	w.String(tenant)
	w.Uint64(round)
	lanesField(w, mask)
}

func encodeRejected(w *wire.Writer, tenant string, round uint64, level service.RejectLevel, n int) {
	w.Byte(recRejected)
	w.String(tenant)
	w.Uint64(round)
	w.Byte(byte(level))
	w.Uint64(uint64(n))
}

func encodeTicketGranted(w *wire.Writer, tenant string, tk service.TicketState) {
	w.Byte(recTicketGranted)
	w.String(tenant)
	appendTicket(w, tk)
}

func encodeTicketEvicted(w *wire.Writer, tenant string, id uint64) {
	w.Byte(recTicketEvicted)
	w.String(tenant)
	w.Uint64(id)
}

// applyRecord decodes one WAL record payload and applies it through the
// replay journal.
func applyRecord(payload []byte, j service.Journal) error {
	r := wire.NewReader(payload)
	kind := r.Byte()
	tenant := r.String()
	switch kind {
	case recRoundCreated, recRoundSealed, recRoundClosed, recRoundForgotten:
		round := r.Uint64()
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		switch kind {
		case recRoundCreated:
			j.RoundCreated(tenant, round)
		case recRoundSealed:
			j.RoundSealed(tenant, round)
		case recRoundClosed:
			j.RoundClosed(tenant, round)
		case recRoundForgotten:
			j.RoundForgotten(tenant, round)
		}
	case recAccepted:
		round := r.Uint64()
		digests, err := decodeDigests(r.Bytes())
		if err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		delta, err := decodeVector(r.Bytes())
		if err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		j.BatchAccepted(tenant, round, digests, delta)
	case recDropoutCorrected:
		round := r.Uint64()
		mask, err := decodeVector(r.Bytes())
		if err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		j.DropoutCorrected(tenant, round, mask)
	case recRejected:
		round := r.Uint64()
		level := service.RejectLevel(r.Byte())
		n := r.Uint64()
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		if level > service.LevelRound || n > maxEntries {
			return fmt.Errorf("%w: reject level %d count %d", errBadRecord, level, n)
		}
		j.Rejected(tenant, round, level, int(n))
	case recTicketGranted:
		tk, err := readTicket(r)
		if err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		j.TicketGranted(tenant, tk)
	case recTicketEvicted:
		id := r.Uint64()
		if err := r.Done(); err != nil {
			return fmt.Errorf("%w: %v", errBadRecord, err)
		}
		j.TicketEvicted(tenant, id)
	default:
		return fmt.Errorf("%w: unknown kind %d", errBadRecord, kind)
	}
	return nil
}
