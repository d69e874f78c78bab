package gaas

import (
	"bytes"
	"net"
	"sync/atomic"
	"testing"

	"glimmers/internal/fixed"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
)

// ticketWorld is a gaas host whose ingest side grants session tickets: the
// cmd/glimmerd topology with the amortized fast path enabled and a test
// clock driving expiry.
type ticketWorld struct {
	*world
	clock  *atomic.Int64
	tktMgr *service.RoundManager
}

func newTicketWorld(t *testing.T) *ticketWorld {
	t.Helper()
	as, err := tee.NewAttestationService()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New("iot.example", as.Root())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("range", dim)); err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		t.Fatal(err)
	}
	svc.Vet(glimmer.BuildBinary(cfg).Measurement())
	mux := NewServeMux()
	mux.Mount(cfg, func(dev *glimmer.Device) error {
		payload, err := svc.BasePayload()
		if err != nil {
			return err
		}
		return svc.Provision(dev, payload)
	})
	clock := new(atomic.Int64)
	clock.Store(1_700_000_000)
	rounds := service.NewRoundManager(service.PipelineConfig{
		ServiceName: svc.Name(),
		Verify:      svc.ContributionVerifyKey(),
		Dim:         dim,
		Tickets: service.NewTicketTable(service.TicketConfig{
			TTL: 60,
			Now: clock.Load,
		}),
		Workers: 2,
		Shards:  2,
	})
	rounds.Vet(glimmer.BuildBinary(cfg).Measurement())
	server := New(ServerConfig{Platform: platform, Mux: mux, Ingest: rounds})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = server.Serve(ln) }()
	return &ticketWorld{
		world: &world{
			as: as, platform: platform, svc: svc, cfg: cfg,
			server: server, addr: ln.Addr().String(), rounds: rounds,
		},
		clock:  clock,
		tktMgr: rounds,
	}
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
	dev, err := glimmer.NewDevice(w.platform, w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Destroy()
	payload, err := w.svc.BasePayload()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.svc.Provision(dev, payload); err != nil {
		t.Fatal(err)
	}
	w.tktMgr.Vet(dev.Measurement())

	client, err := dial(w.addr, w.verifier(), w.svc.Name())
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
	if got := w.tktMgr.Round(1).Count(); got != 3 {
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

// TestTicketGrantWithoutGranter: a server whose ingestor cannot grant (or
// with no ingest at all) refuses the command with a clean remote error.
func TestTicketGrantWithoutGranter(t *testing.T) {
	w := newWorld(t)
	client, err := dial(w.addr, w.verifier(), w.svc.Name())
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
