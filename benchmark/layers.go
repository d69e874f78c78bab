package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"glimmers/internal/durable"
	"glimmers/internal/fixed"
	"glimmers/internal/fleet"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/service"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The traced pass. Every layer metric is a timing of an exported function
// called from here, on the frames the workload really submits: nothing
// inside the program is instrumented. After each real submit (the frame's
// root span) the same frame is replayed through the layer entry points in
// stack order, each replay a child span. The parent links are the budget
// tree, not nesting in time:
//
//	frame                      real submit, TLS → journaled registry
//	├─ gaas.rtt_tls            same frame → accept-all Ingestor, TLS
//	│  └─ gaas.rtt_tcp         same frame → accept-all Ingestor, plaintext
//	│     ├─ wire.encode       AppendBatch
//	│     └─ wire.decode       DecodeBatchInto
//	└─ service.ingest_journal  IngestBatch, journaled clone
//	   ├─ durable.stage        Store.BatchAccepted
//	   └─ service.ingest       IngestBatch, journal-free clone
//	      ├─ glimmer.peek  ├─ glimmer.view_decode
//	      ├─ xcrypto.mac   └─ fixed.accumulate
//
// so a span's self time (its duration minus its children's) is the layer's
// own cost, and frame's self time is what the budget fails to explain.
// service.per_item (Registry.Ingest, one contribution at a time) and
// fleet.owner (Ring.OwnerOf) are roots: alternatives to, not parts of, the
// frame's path on one node.
//
// The leaves run serially here, while a tenant with Workers > 1 cuts a
// frame of 32 items or more into chunks for its pool: when both vCPUs are
// free the chunks overlap, service.ingest can be shorter than the leaf
// sum, and its self time (service.other) goes negative by the overlap.

// acceptAll is the stub Ingestor behind the round-trip replays: the frame
// crosses the whole transport and nothing else.
type acceptAll struct{}

func (acceptAll) IngestBatch(raws [][]byte) (int, []error) { return len(raws), nil }

// freshMerger gives every partial seal its own hub: pooled workloads reuse
// round numbers, and a MergeHub never forgets a round.
type freshMerger struct{}

func (freshMerger) MergePartialSeal(seal []byte) ([]byte, error) {
	return (&service.MergeHub{AllowTOFU: true}).MergePartialSeal(seal)
}

// layerHook replays frames and rounds through the layers. A nil hook is
// the end-to-end pass: submit just submits.
type layerHook struct {
	cfg  *runConfig
	t    *tracer
	tr   *trustRoot
	live *service.Registry // ticket source
	// syncEvery: device-session grants a ticket per session, so the
	// clones' tables are refreshed before every replay.
	syncEvery bool

	tlsStub, tcpStub *gaas.Client
	stubs            []io.Closer
	// Clones stand in for the measured registry, carrying its tickets.
	batch, perItem *hosted // journal-free
	shadow         *hosted // journaled
	shadowStore    *durable.Store
	shadowAudit    *os.File
	mergeClient    *gaas.Client
	nodeSeal       service.NodeSeal
	ring           *fleet.Ring
	keys           map[uint64]xcrypto.SessionKey

	// probeFrame is a ticketed frame of the workload's shape, for the
	// MAC-path leaves when the workload's own frames are ECDSA-signed.
	probeFrame [][]byte
	kit        probeKit

	// copyTo: when set, the next sealed round's state dir is copied there
	// right after the seal barrier returns.
	copyTo    string
	copiedSum fixed.Vector
	copiedAt  uint64

	// off makes the hook transparent: the untraced single-generator pass.
	off        bool
	maxTickets int
	placed     map[uint32]int // finished rounds per owner on the ring

	roundOpen bool
	views     []glimmer.TicketedView
	digests   [][32]byte
	encBuf    []byte
	items     [][]byte
	acc       fixed.Vector
	mac       xcrypto.MACState

	frameItems, frameBytes, firstIngest, steadyIngest samples
}

// probeKit is a handful of fresh devices taken through every glimmer and
// control-plane call once, timed.
type probeKit struct {
	setupTimes
	grant, ecdsa, dial samples
}

func newLayerHook(cfg *runConfig, tr *trustRoot, n *node, maxTickets, frameItems int, syncEvery bool, dir string) (h *layerHook, err error) {
	h = &layerHook{
		cfg: cfg, t: newTracer(cfg.workload, 1<<21), tr: tr, live: n.registry, syncEvery: syncEvery,
		keys: map[uint64]xcrypto.SessionKey{}, acc: fixed.NewVector(tr.dim),
		maxTickets: maxTickets, placed: map[uint32]int{},
	}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	for _, plaintext := range []bool{false, true} {
		client, r, err := stubServer(plaintext)
		if err != nil {
			return nil, err
		}
		h.stubs = append(h.stubs, client, r)
		if plaintext {
			h.tcpStub = client
		} else {
			h.tlsStub = client
		}
	}
	if h.batch, err = tr.newRegistry(maxTickets); err != nil {
		return nil, err
	}
	if h.perItem, err = tr.newRegistry(maxTickets); err != nil {
		return nil, err
	}
	if h.shadow, err = tr.newRegistry(maxTickets); err != nil {
		return nil, err
	}
	if h.shadowStore, h.shadowAudit, _, err = openStore(filepath.Join(dir, "shadow"), h.shadow.registry); err != nil {
		return nil, err
	}
	merger, err := startMerger(freshMerger{})
	if err != nil {
		return nil, err
	}
	h.stubs = append(h.stubs, merger)
	if h.mergeClient, err = dial(merger.addr()); err != nil {
		return nil, err
	}
	h.stubs = append(h.stubs, h.mergeClient)
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, err
	}
	h.nodeSeal = service.NodeSeal{NodeID: 1, ShardCount: 1, Measurement: tr.meas, Key: key}
	if h.ring, err = fleet.NewRing([]uint32{1, 2, 3}, 0); err != nil {
		return nil, err
	}
	if err := h.runKit(cfg, n, frameItems); err != nil {
		return nil, err
	}
	h.syncTickets()
	return h, nil
}

// stubServer serves an accept-all Ingestor over TLS or plaintext, under
// the same limits as the real edge, and returns a warm client.
func stubServer(plaintext bool) (*gaas.Client, *running, error) {
	r, err := serve(gaas.ServerConfig{Ingest: acceptAll{}}, plaintext)
	if err != nil {
		return nil, nil, err
	}
	dialCfg := dialConfig()
	if plaintext {
		dialCfg.TLS = nil
	}
	client, err := gaas.DialContext(context.Background(), r.addr(), dialCfg)
	if err != nil {
		r.Close()
		return nil, nil, err
	}
	return client, r, nil
}

// runKit takes a few fresh devices through provisioning, the grant
// exchange (over the wire and in-process) and both contribution variants,
// timing every call, and builds the ticketed probe frame.
func (h *layerHook) runKit(cfg *runConfig, n *node, frameItems int) error {
	const devices = 16
	platform, err := tee.NewPlatform(h.tr.as)
	if err != nil {
		return err
	}
	client, err := dial(n.addr())
	if err != nil {
		return err
	}
	defer client.Close()
	verify := h.tr.svc.ContributionVerifyKey()
	verified := func(msg, sig []byte) error {
		t0 := time.Now()
		ok := verify.Verify(msg, sig)
		h.kit.ecdsa.add(time.Since(t0))
		if !ok {
			return fmt.Errorf("probe: an enclave's signature does not verify")
		}
		return nil
	}
	rng := cfg.rng(1 << 32)
	per := (frameItems + devices - 1) / devices
	for d := 0; d < devices; d++ {
		t0 := time.Now()
		c, err := dial(n.addr())
		if err != nil {
			return err
		}
		h.kit.dial.add(time.Since(t0))
		c.Close()

		dev, err := ticketedDevice(h.tr, platform, client, 1, 1, &h.kit.setupTimes)
		if err != nil {
			return err
		}
		// A second request from the same enclave: granted in-process on a
		// journal-free clone, and its signature an ECDSA verify sample.
		req, err := dev.TicketRequest(1, 1)
		if err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := h.batch.registry.GrantTicket(req); err != nil {
			return err
		}
		h.kit.grant.add(time.Since(t0))
		decoded, err := wire.DecodeTicketRequest(req)
		if err != nil {
			return err
		}
		if err := verified(decoded.SignedBytes(), decoded.Signature); err != nil {
			return err
		}
		for i := 0; i < per && len(h.probeFrame) < frameItems; i++ {
			raw, _, err := contributeTicketed(dev, 1, unitVector(rng, h.tr.dim), &h.kit.setupTimes)
			if err != nil {
				return err
			}
			cfg.secret(raw)
			h.probeFrame = append(h.probeFrame, raw)
		}
		sc, err := dev.Contribute(1, unitVector(rng, h.tr.dim), nil)
		if err != nil {
			return err
		}
		_, signed, err := glimmer.DecodeSignedContributionBytes(glimmer.EncodeSignedContribution(sc))
		if err != nil {
			return err
		}
		if err := verified(signed, sc.Signature); err != nil {
			return err
		}
		dev.Destroy()
	}
	return nil
}

// syncTickets copies the measured registry's ticket table into the clones
// and refreshes the key map the MAC leaf uses. Keys stay in memory.
func (h *layerHook) syncTickets() {
	st := h.live.ExportState()
	for i := range st.Tenants {
		st.Tenants[i].Rounds = nil
		for _, tk := range st.Tenants[i].Tickets {
			h.keys[tk.ID] = tk.Key
			h.cfg.secret(tk.Key[:])
		}
	}
	for _, c := range []*hosted{h.batch, h.perItem, h.shadow} {
		if err := c.registry.RestoreState(st); err != nil {
			panic(err) // same tenant config by construction
		}
	}
}

// submit runs the real submit under the frame's root span, then replays
// the frame through the layers. do returns the accepted tally.
func (h *layerHook) submit(no int, raws [][]byte, do func() (int, error)) error {
	if h == nil || h.off || h.t.full() {
		_, err := do()
		return err
	}
	t := h.t
	root := t.begin(no, "frame", -1)
	accepted, err := do()
	t.end(root)
	if err != nil {
		return err
	}
	if h.syncEvery {
		h.syncTickets()
	}
	h.frameItems = append(h.frameItems, float64(len(raws)))
	h.frameBytes = append(h.frameBytes, float64(wire.EncodedBatchSize(raws)))

	// Transport: TLS, then plaintext, then the codec on its own.
	id := t.begin(no, "gaas.rtt_tls", root)
	n, _, err := h.tlsStub.SubmitBatch(raws)
	t.end(id)
	if err != nil || n != len(raws) {
		return fmt.Errorf("trace: TLS stub answered (%d, %v)", n, err)
	}
	tcp := t.begin(no, "gaas.rtt_tcp", id)
	n, _, err = h.tcpStub.SubmitBatch(raws)
	t.end(tcp)
	if err != nil || n != len(raws) {
		return fmt.Errorf("trace: TCP stub answered (%d, %v)", n, err)
	}
	id = t.begin(no, "wire.encode", tcp)
	h.encBuf = wire.AppendBatch(h.encBuf[:0], raws)
	t.end(id)
	id = t.begin(no, "wire.decode", tcp)
	h.items, err = wire.DecodeBatchInto(h.encBuf, h.items)
	t.end(id)
	if err != nil || len(h.items) != len(raws) {
		return fmt.Errorf("trace: batch codec returned %d of %d items: %v", len(h.items), len(raws), err)
	}

	// Service: journaled, journal-free, one at a time.
	journaled := t.begin(no, "service.ingest_journal", root)
	n, _ = h.shadow.registry.IngestBatch(raws)
	t.end(journaled)
	if n != accepted {
		return fmt.Errorf("trace: journaled clone accepted %d, the server %d", n, accepted)
	}
	ingest := t.begin(no, "service.ingest", journaled)
	n, _ = h.batch.registry.IngestBatch(raws)
	d := t.end(ingest)
	if n != accepted {
		return fmt.Errorf("trace: clone accepted %d, the server %d", n, accepted)
	}
	if h.roundOpen {
		h.steadyIngest.add(d)
	} else {
		h.firstIngest.add(d)
		h.roundOpen = true
	}
	id = t.begin(no, "service.per_item", -1)
	n = 0
	for _, raw := range raws {
		if h.perItem.registry.Ingest(raw) == nil {
			n++
		}
	}
	t.end(id)
	if n != accepted {
		return fmt.Errorf("trace: per-item clone accepted %d, the server %d", n, accepted)
	}

	// Leaves of the MAC path, on the frame itself when it is ticketed,
	// else on the ticketed probe frame under a root of its own.
	leafOf, tf, mustVerify := ingest, raws, accepted
	if !glimmer.PeekContributionTicketed(raws[0]) {
		leafOf, tf, mustVerify = t.begin(no, "probe.ticketed", -1), h.probeFrame, len(h.probeFrame)
		defer t.end(leafOf)
	}
	if err := h.leaves(no, leafOf, tf, mustVerify); err != nil {
		return err
	}
	id = t.begin(no, "durable.stage", journaled)
	h.shadowStore.BatchAccepted(serviceName, h.views[0].Round, h.digests, h.acc)
	t.end(id)
	return nil
}

// leaves times the four leaf calls of the ticketed batch plan over every
// item of tf, and the ring lookup.
func (h *layerHook) leaves(no, parent int, tf [][]byte, mustVerify int) error {
	t := h.t
	id := t.begin(no, "glimmer.peek", parent)
	for _, raw := range tf {
		if _, err := glimmer.PeekContributionService(raw); err != nil {
			return err
		}
		if _, err := glimmer.PeekContributionRound(raw); err != nil {
			return err
		}
	}
	t.end(id)

	if cap(h.views) < len(tf) {
		h.views = make([]glimmer.TicketedView, len(tf))
		h.digests = make([][32]byte, len(tf))
	}
	h.views, h.digests = h.views[:len(tf)], h.digests[:len(tf)]
	id = t.begin(no, "glimmer.view_decode", parent)
	for i, raw := range tf {
		if err := h.views[i].Decode(raw); err != nil {
			return err
		}
	}
	t.end(id)

	verified := 0
	id = t.begin(no, "xcrypto.mac", parent)
	for i := range h.views {
		v := &h.views[i]
		key := h.keys[v.TicketID]
		h.mac.SetKey(&key)
		head, tail := v.PreimageParts()
		if h.mac.VerifyKeyed(head, tail, v.MAC) {
			verified++
		}
	}
	t.end(id)
	if verified < mustVerify {
		return fmt.Errorf("trace: %d MACs verified, want at least %d", verified, mustVerify)
	}

	for i := range h.acc {
		h.acc[i] = 0
	}
	id = t.begin(no, "fixed.accumulate", parent)
	for i := range h.views {
		fixed.AccumulateWireInto(h.acc, h.views[i].LaneBytes)
	}
	t.end(id)
	for i := range h.views {
		copy(h.digests[i][:], h.views[i].MAC)
	}

	id = t.begin(no, "fleet.owner", -1)
	for _, raw := range tf {
		if _, err := h.ring.OwnerOf(raw); err != nil {
			return err
		}
	}
	t.end(id)
	return nil
}

// sealed is called right after a round's seal barrier returns on the
// measured node, before the round is closed.
func (h *layerHook) sealed(n *node, round uint64, sum fixed.Vector) error {
	if h == nil || h.copyTo == "" {
		return nil
	}
	if err := copyDir(n.dir, h.copyTo); err != nil {
		return err
	}
	h.copyTo, h.copiedSum, h.copiedAt = "", sum, round
	return nil
}

// roundDone replays the end of a round on the clones: seal, barrier,
// signed partial export, merge in-process and over the wire.
func (h *layerHook) roundDone(round uint64) error {
	if h == nil || h.off || h.t.full() {
		return nil
	}
	t := h.t
	h.roundOpen = false
	h.placed[h.ring.Owner([]byte(serviceName), round)]++
	root := t.begin(-1, "round", -1)
	defer t.end(root)

	id := t.begin(-1, "service.seal", root)
	err := h.batch.manager.Seal(round)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin(-1, "durable.barrier", root)
	h.shadowStore.RoundSealed(serviceName, round)
	t.end(id)

	id = t.begin(-1, "service.partial_seal", root)
	seal, err := h.batch.manager.ExportPartialSeal(round, h.nodeSeal)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin(-1, "service.merge", root)
	_, err = freshMerger{}.MergePartialSeal(seal)
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin(-1, "gaas.merge_rtt", root)
	merged, err := h.mergeClient.MergePartialSeal(seal)
	t.end(id)
	if err != nil {
		return err
	}
	p, _ := h.batch.manager.Lookup(round)
	sum := p.Sum()
	for i, lane := range merged.Sum {
		if fixed.Ring(lane) != sum[i] {
			return fmt.Errorf("trace: round %d merged over the wire differs from the clone's sealed sum", round)
		}
	}
	for _, c := range []*hosted{h.batch, h.perItem, h.shadow} {
		c.finish(round)
	}
	return nil
}

func (h *layerHook) close() {
	for _, c := range h.stubs {
		c.Close()
	}
	if h.shadowStore != nil {
		h.shadowStore.Close()
		h.shadowAudit.Close()
	}
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// recoverProbe recovers the copied state dir into a fresh registry, checks
// that the round that was sealed when the copy was taken comes back with
// the identical sum, and then snapshots.
func (h *layerHook) recoverProbe(dir string) (recoverMS, mbPerS, snapshotMS float64, err error) {
	var walBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, e := range entries {
		if info, ierr := e.Info(); ierr == nil && e.Name() != "audit.log" {
			walBytes += info.Size()
		}
	}
	fresh, err := h.tr.newRegistry(h.maxTickets)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	store, auditFile, stats, err := openStore(dir, fresh.registry)
	took := time.Since(t0)
	if err != nil {
		return 0, 0, 0, err
	}
	defer auditFile.Close()
	defer store.Close()
	if stats.ReplayErrors != 0 || stats.TruncatedBytes != 0 {
		return 0, 0, 0, fmt.Errorf("recover: %d replay errors, %d torn bytes", stats.ReplayErrors, stats.TruncatedBytes)
	}
	p, ok := fresh.manager.Lookup(h.copiedAt)
	if !ok || !sameVector(p.Sum(), h.copiedSum) {
		return 0, 0, 0, fmt.Errorf("recover: sealed round %d did not come back with its sum", h.copiedAt)
	}
	t0 = time.Now()
	if err := store.Snapshot(fresh.registry); err != nil {
		return 0, 0, 0, err
	}
	snap := time.Since(t0)
	ms := float64(took) / 1e6
	return ms, float64(walBytes) / (1 << 20) / math.Max(took.Seconds(), 1e-9), float64(snap) / 1e6, nil
}
