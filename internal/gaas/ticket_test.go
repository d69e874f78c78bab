package gaas

import (
	"bytes"
	"net"
	"slices"
	"sync/atomic"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/wire"
)

// ticketWorld is a gaas host whose ingest side grants session tickets: the
// cmd/glimmerd topology with the amortized fast path enabled and a test
// clock driving expiry.
type ticketWorld struct {
	*world
	clock *atomic.Int64
}

func newTicketWorld(t *testing.T) *ticketWorld {
	t.Helper()
	clock := new(atomic.Int64)
	clock.Store(1_700_000_000)
	tickets := &service.TicketConfig{TTL: 60, Now: clock.Load}
	return &ticketWorld{world: newWorldIngest(t, true, tickets), clock: clock}
}

// TestTicketGrantOverGaas drives the whole amortized loop through the
// frame protocol: a device enclave's signed request forwarded by the
// client, the grant installed back into the enclave, MAC'd contributions
// submitted in batches, then expiry refusing the session and a renewal
// (the same exchange again) restoring it.
func TestTicketGrantOverGaas(t *testing.T) {
	w := newTicketWorld(t)

	// The contributing enclave runs client-side here (the device owns a
	// TEE); gaas carries its control plane and its batches.
	dev, err := w.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Destroy()

	client, err := dial(w.addr, w.verifier(), w.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	establish := func() {
		t.Helper()
		req, err := dev.TicketRequest(1, 64)
		if err != nil {
			t.Fatal(err)
		}
		grant, err := client.RequestTicket(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.InstallTicket(grant); err != nil {
			t.Fatal(err)
		}
	}
	submitRound := func(round uint64, vals []float64) (accepted, rejected int) {
		t.Helper()
		var raws [][]byte
		for _, v := range vals {
			tc, err := dev.ContributeTicketed(round, fixed.FromFloats([]float64{v, v, v}), nil)
			if err != nil {
				t.Fatal(err)
			}
			raws = append(raws, glimmer.EncodeTicketedContribution(tc))
		}
		accepted, rejected, err := client.SubmitBatch(raws)
		if err != nil {
			t.Fatal(err)
		}
		return accepted, rejected
	}

	establish()
	if a, r := submitRound(1, []float64{0.1, 0.4, 0.7}); a != 3 || r != 0 {
		t.Fatalf("ticketed submit = (%d, %d), want (3, 0)", a, r)
	}
	if got := w.rounds.Round(1).Count(); got != 3 {
		t.Fatalf("pipeline count = %d, want 3", got)
	}

	// Expiry: the table's clock passes the TTL, the same session's MACs are
	// refused — renewal (the exchange again) restores service.
	w.clock.Add(61)
	if a, r := submitRound(2, []float64{0.2, 0.5}); a != 0 || r != 2 {
		t.Fatalf("expired submit = (%d, %d), want (0, 2)", a, r)
	}
	establish()
	if a, r := submitRound(2, []float64{0.3, 0.6}); a != 2 || r != 0 {
		t.Fatalf("renewed submit = (%d, %d), want (2, 0)", a, r)
	}
}

// TestIdenticalTicketedContributionsFromOneDevice is the ticketed twin of
// glimmer's TestIdenticalContributionsFromTwoDevices: one device holding one
// ticket contributes the same vector twice in a round. Both are honest
// contributions and both count; only a resubmission of either one's exact
// bytes is a replay.
func TestIdenticalTicketedContributionsFromOneDevice(t *testing.T) {
	w := newTicketWorld(t)
	dev, err := w.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Destroy()
	client, err := dial(w.addr, w.verifier(), w.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	req, err := dev.TicketRequest(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.RequestTicket(req)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.InstallTicket(grant); err != nil {
		t.Fatal(err)
	}

	const round = 1
	value := fixed.FromFloats([]float64{0.25, 0.5, 0.75})
	var raws [2][]byte
	for i := range raws {
		tc, err := dev.ContributeTicketed(round, value, nil)
		if err != nil {
			t.Fatal(err)
		}
		raws[i] = glimmer.EncodeTicketedContribution(tc)
	}
	if a, r, err := client.SubmitBatch(raws[:]); err != nil || a != 2 || r != 0 {
		t.Fatalf("two identical contributions = (%d, %d, %v), want (2, 0)", a, r, err)
	}
	p := w.rounds.Round(round)
	twice := fixed.NewVector(dim)
	twice.AddInPlace(value)
	twice.AddInPlace(value)
	if p.Count() != 2 || !slices.Equal(p.Sum(), twice) {
		t.Fatalf("count %d sum %v, want 2 and %v", p.Count(), p.Sum(), twice)
	}
	for i, raw := range raws {
		if a, r, err := client.SubmitBatch([][]byte{raw}); err != nil || a != 0 || r != 1 {
			t.Fatalf("replay of contribution %d = (%d, %d, %v), want (0, 1)", i, a, r, err)
		}
	}
	if p.Count() != 2 {
		t.Fatalf("count after replays = %d, want 2", p.Count())
	}
}

// TestTicketGrantWithoutGranter: a server whose ingestor cannot grant (or
// with no ingest at all) refuses the command with a clean remote error.
func TestTicketGrantWithoutGranter(t *testing.T) {
	w := newWorld(t)
	client, err := dial(w.addr, w.verifier(), w.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.RequestTicket([]byte("request")); err == nil {
		t.Fatal("ticket granted by a server without a granter")
	}
}

// TestGoldenTicketGrantFrame freezes the ticket-grant command frame — the
// control-plane routing surface of the amortized fast path — in the same
// style as the tenant hello fixture.
func TestGoldenTicketGrantFrame(t *testing.T) {
	want := readGolden(t, "ticket_grant_frame.hex")
	body := readGolden(t, "ticket_request_body.hex")
	got := appendFrame(nil, cmdTicketGrant, body)
	if !bytes.Equal(got, want) {
		t.Fatalf("ticket-grant frame changed:\n got: %x\nwant: %x", got, want)
	}
	// The frozen bytes must decode back through the server's reader to the
	// same command, and the body must still parse as a ticket request.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	go func() { _, _ = c1.Write(want) }()
	tag, frameBody, _, err := readFrameInto(c2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(tag) != cmdTicketGrant {
		t.Fatalf("tag = %q, want %q", tag, cmdTicketGrant)
	}
	req, err := wire.DecodeTicketRequest(frameBody)
	if err != nil {
		t.Fatal(err)
	}
	if req.Service != "iot.example" || req.RoundFirst != 3 || req.RoundLast != 66 {
		t.Fatalf("decoded request diverges: %+v", req)
	}
}
