package glimmer

import (
	"encoding/binary"
	"fmt"

	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// TicketedView is the zero-copy decode of a ticketed contribution: every
// byte field is a view into the input frame, and the vector stays in its
// wire form (contiguous big-endian lanes) so the batch ingest path can MAC
// and accumulate straight from the frame without materializing a
// fixed.Vector per item. A view is valid only while the frame it was
// decoded from is; retaining callers must copy.
type TicketedView struct {
	ServiceName []byte // view into the frame
	Round       uint64
	TicketID    uint64
	LaneBytes   []byte // view: big-endian uint64 lanes, 8 bytes each
	Confidence  int64
	MAC         []byte // view into the frame
	fields      []byte // view: everything the MAC covers after the domain header
}

// Lanes returns the vector dimension.
func (v *TicketedView) Lanes() int { return len(v.LaneBytes) / 8 }

// PreimageParts returns the MAC preimage as two segments: the constant
// domain header and the frame's field bytes. GCM takes its additional data
// in one piece, so a checker joins them in a reusable buffer (the service
// joins them in its per-frame ticketCheck.preimage).
func (v *TicketedView) PreimageParts() (head, tail []byte) {
	return ticketedHeader, v.fields
}

// Decode decodes data into v without copying. It is the one parser of the
// ticketed variant: DecodeTicketedContribution copies out of it.
func (v *TicketedView) Decode(data []byte) error {
	var r wire.Reader
	r.Reset(data)
	v.ServiceName = r.BytesView()
	v.Round = r.Uint64()
	hdr := r.BytesView()
	if len(hdr) != ticketHeaderLen || string(hdr[:len(ticketedMagic)]) != ticketedMagic {
		if r.Err() == nil {
			return fmt.Errorf("glimmer: ticketed contribution: bad ticket header (%d bytes)", len(hdr))
		}
	} else {
		v.TicketID = binary.BigEndian.Uint64(hdr[len(ticketedMagic):])
	}
	v.LaneBytes = r.Uint64sView()
	v.Confidence = int64(r.Uint64())
	fieldsEnd := len(data) - r.Remaining()
	v.MAC = r.BytesView()
	if err := r.Done(); err != nil {
		return fmt.Errorf("glimmer: ticketed contribution: %w", err)
	}
	if len(v.MAC) != xcrypto.MACSize {
		return fmt.Errorf("glimmer: ticketed contribution: MAC is %d bytes", len(v.MAC))
	}
	v.fields = data[:fieldsEnd]
	return nil
}

// Clear drops every view so a pooled TicketedView does not pin the frame it
// last decoded.
func (v *TicketedView) Clear() {
	*v = TicketedView{}
}
