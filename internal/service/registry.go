package service

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"glimmers/internal/glimmer"
	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The multi-tenant hosting layer: one Registry owns N tenants — each a
// hosted service with its own predicate, contribution key, glimmer config,
// and RoundManager — under one shared live-round budget. The paper's whole
// point is that a single glimmer substrate serves many services (§4.1 bot
// detection and §4.2 hosted glimmers are two tenants of the same trust
// mechanism); the Registry is the server-side shape of that claim.

// DefaultMaxTotalRounds bounds the live pipelines a Registry's tenants may
// hold collectively when no explicit budget size is given.
const DefaultMaxTotalRounds = 256

// Registry and budget errors.
var (
	// ErrUnknownTenant is returned when a contribution (or a hosting
	// request) names a service the registry does not host.
	ErrUnknownTenant = errors.New("service: unknown tenant")
	// ErrTenantExists is returned by AddTenant for a duplicate name.
	ErrTenantExists = errors.New("service: tenant already registered")
	// ErrBudgetExhausted is returned by ingest when the shared budget is
	// full and no tenant holds an evictable open round.
	ErrBudgetExhausted = errors.New("service: shared round budget exhausted")
)

// Budget is the shared live-round budget across a registry's tenants: a
// global cap on pipelines in memory, enforced at ingest-driven round
// admission. When the cap is hit, the budget evicts the least-filled open
// round of the tenant holding the most live rounds — cross-tenant fair
// eviction: the heaviest user of the shared resource gives a round back,
// so one tenant's round spray can never starve the others. Sealed and
// closed rounds still count against the budget (they hold memory) but are
// never evicted; a budget wedged by consumed-but-unforgotten rounds is
// released by Forget.
//
// The budget keeps no books: its occupancy is what its members hold when it
// is read, so operator creation is charged and Forget releases without
// telling it. mu serializes ingest-driven admission (RoundManager.ingestRound
// holds it from first check to insert), which keeps that occupancy at or
// under max; it is taken before any member's own lock, never after.
type Budget struct {
	max int

	mu sync.Mutex
	// members in attachment order, which breaks eviction ties and so is part
	// of the budget's deterministic behaviour.
	members []*RoundManager
}

func (b *Budget) occupancyLocked() int {
	n := 0
	for _, m := range b.members {
		n += m.live()
	}
	return n
}

// makeRoomLocked evicts cross-tenant until one more round fits under the
// cap. The victims (already out of their managers) must be Closed by the
// caller outside every lock; they are returned even alongside
// ErrBudgetExhausted.
func (b *Budget) makeRoomLocked() (victims []*Pipeline, err error) {
	for b.occupancyLocked() >= b.max {
		p := b.evictLocked()
		if p == nil {
			return victims, ErrBudgetExhausted
		}
		victims = append(victims, p)
	}
	return victims, nil
}

// evictLocked takes one open round from the heaviest member (attachment
// order breaks ties; members with nothing evictable are skipped).
func (b *Budget) evictLocked() *Pipeline {
	byLoad := slices.Clone(b.members)
	live := make(map[*RoundManager]int, len(byLoad))
	for _, m := range byLoad {
		live[m] = m.live()
	}
	slices.SortStableFunc(byLoad, func(x, y *RoundManager) int { return live[y] - live[x] })
	for _, m := range byLoad {
		if p, ok := m.dropLeastFilled(); ok {
			return p
		}
	}
	return nil
}

// TenantConfig describes one hosted service.
type TenantConfig struct {
	// Name is the tenant's service name — the routing key every
	// contribution carries and every client names in its hello.
	Name string
	// Verify checks the tenant's glimmer-signed contributions. Nil
	// disables signature verification: the tenant then trusts its
	// transport entirely. That mode exists for pre-authenticated
	// in-process ingest (contributions already verified upstream) and for
	// tests pinning the decode+dedup path's allocations; anything fed from
	// a network must set Verify.
	Verify *xcrypto.VerifyKey
	// Dim is the tenant's contribution dimensionality.
	Dim int
	// Vetted allowlists Glimmer measurements for every round from the
	// start (RoundManager.Vet adds more later).
	Vetted []tee.Measurement

	// Workers bounds how many chunks one frame's group for a round is split
	// into: the frame's own goroutines run all but the last chunk and exit
	// before ingest returns. Workers == 1 processes every frame inline on
	// the calling goroutine (the serial baseline); <= 0 defaults to
	// GOMAXPROCS.
	Workers int
	// Shards is the number of independently locked dedup/sum shards per
	// round, rounded up to a power of two; <= 0 defaults to 2×Workers. More
	// shards mean less accumulation contention under concurrent ingest.
	Shards int
	// ExpectedCohort, when positive, pre-sizes each round's dedup sets for
	// that many total contributions, so steady-state ingest below the
	// expectation never rehashes (and therefore never allocates) on the
	// dedup insert. Ingest beyond the expectation still works; the maps
	// grow as usual.
	ExpectedCohort int

	// MaxRounds, RoundWindow, and EvictAtCap are the tenant's admission
	// quota. The quota is per-tenant; the Registry's Budget is the global
	// cap on top.
	//
	// MaxRounds caps how many live rounds ingest traffic may create (<= 0
	// means DefaultMaxRounds). The explicit RoundManager.Round is
	// operator-driven and not subject to the cap.
	MaxRounds int
	// RoundWindow, when non-zero, restricts which new rounds ingest may
	// create: within RoundWindow of the highest established live round —
	// one with at least two accepted contributions. Anchoring only on
	// established rounds means a single stray far-off round (a stale
	// client or epoch-misconfigured bug, admitted while nothing was live)
	// cannot become the anchor and wedge all real traffic; until some
	// round establishes, admission falls back to the cap alone. This is a
	// guard against accidents, not a security boundary: the round number
	// is client-chosen and the anchor moves with the workload, so a
	// vetted client can still walk the window forward. Deployments that
	// need hard round authority must assign round numbers server-side.
	// Explicitly created rounds (RoundManager.Round) are not subject to it.
	RoundWindow uint64
	// EvictAtCap makes ingest at the cap close and forget the least-filled
	// open round (fewest accepted contributions; highest round number on
	// ties) to admit a new verified one, instead of returning
	// ErrTooManyRounds. Evicting by fill means a vetted client spraying
	// fresh round numbers mostly evicts its own near-empty rounds, and a
	// round with a substantially filled cohort outlasts any spray — though
	// a client willing to spend valid contributions can still tie and
	// displace a round with an equally small count, so this bounds damage
	// rather than eliminating it. Suits unattended daemons (cmd/glimmerd);
	// services that consume aggregates should retire rounds explicitly via
	// Close/Forget instead.
	EvictAtCap bool

	// Glimmer, when its ServiceName is set, is the enclave configuration
	// the hosting front end (internal/gaas) loads for this tenant's user
	// sessions; Provision readies each freshly loaded device. A tenant
	// without a Glimmer config is ingest-only.
	Glimmer   glimmer.Config
	Provision func(*glimmer.Device) error

	// TicketPolicy, when non-nil, enables the amortized fast path for this
	// tenant: the registry creates a bounded per-tenant TicketTable under
	// this policy, GrantTicket fills it (one signature verify per session), and
	// ingest accepts MAC'd contributions against it. Tenants without a
	// policy refuse ticketed traffic; their signed path is unchanged.
	TicketPolicy *TicketConfig
}

// Tenant is one registered service: its configuration and the RoundManager
// that aggregates for it.
type Tenant struct {
	cfg     TenantConfig
	manager *RoundManager
}

// Name returns the tenant's service name.
func (t *Tenant) Name() string { return t.cfg.Name }

// Config returns the tenant's configuration.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// Manager returns the tenant's round manager.
func (t *Tenant) Manager() *RoundManager { return t.manager }

// Measurement returns the enclave measurement this tenant's user sessions
// attest — the value a deployment publishes for clients to pin (gaas
// known-hosts files, verifier allowlists). The zero measurement means the
// tenant is ingest-only (no Glimmer config).
func (t *Tenant) Measurement() tee.Measurement {
	if t.cfg.Glimmer.ServiceName == "" {
		return tee.Measurement{}
	}
	return glimmer.BuildBinary(t.cfg.Glimmer).Measurement()
}

// Registry owns the tenants of a multi-tenant deployment and routes every
// submitted contribution to its tenant's pipeline by an alloc-free header
// peek. It satisfies gaas.Ingestor (batch ingest with frame-level routing)
// and gaas.HostResolver (per-tenant enclave hosting). All methods are safe
// for concurrent use; AddTenant must happen before traffic is served.
type Registry struct {
	budget *Budget

	mu      sync.RWMutex
	tenants map[string]*Tenant

	// rejected counts registry-level refusals: unroutable bytes and
	// unknown tenants. Refusals inside a tenant are counted by that
	// tenant's manager and pipelines.
	rejected atomic.Int64

	// journal, when non-nil, receives durable mutations (see state.go).
	// Set via SetJournal before the registry serves traffic.
	journal Journal
}

// NewRegistry creates a registry whose tenants share a budget of at most
// maxTotalRounds live rounds (<= 0 means DefaultMaxTotalRounds).
func NewRegistry(maxTotalRounds int) *Registry {
	if maxTotalRounds <= 0 {
		maxTotalRounds = DefaultMaxTotalRounds
	}
	return &Registry{
		budget:  &Budget{max: maxTotalRounds},
		tenants: make(map[string]*Tenant),
	}
}

// AddTenant registers a service and returns its tenant handle.
func (r *Registry) AddTenant(cfg TenantConfig) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, errors.New("service: tenant with empty name")
	}
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("service: tenant %q: dimension must be positive", cfg.Name)
	}
	// The duplicate check guards manager creation too: a member of the
	// shared budget cannot leave it, so a refused AddTenant must not have
	// made one.
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.tenants[cfg.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrTenantExists, cfg.Name)
	}
	rc := &roundConfig{TenantConfig: cfg, allow: newAllowlist()}
	if rc.Workers <= 0 {
		rc.Workers = runtime.GOMAXPROCS(0)
	}
	if rc.Shards <= 0 {
		rc.Shards = 2 * rc.Workers
	}
	rc.Shards = nextPowerOfTwo(rc.Shards)
	if rc.MaxRounds <= 0 {
		rc.MaxRounds = DefaultMaxRounds
	}
	if cfg.TicketPolicy != nil {
		rc.tickets = newTicketTable(*cfg.TicketPolicy)
	}
	for _, meas := range cfg.Vetted {
		rc.allow.vet(meas)
	}
	m := &RoundManager{cfg: rc, budget: r.budget, rounds: make(map[uint64]*Pipeline)}
	r.budget.mu.Lock()
	r.budget.members = append(r.budget.members, m)
	r.budget.mu.Unlock()
	t := &Tenant{cfg: cfg, manager: m}
	r.tenants[cfg.Name] = t
	return t, nil
}

// Tenant returns the named tenant.
func (r *Registry) Tenant(name string) (*Tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[name]
	return t, ok
}

// Tenants lists the registered tenants in name order.
func (r *Registry) Tenants() []*Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].cfg.Name < out[j].cfg.Name })
	return out
}

// Rejected reports registry-level refusals (unroutable bytes, unknown
// tenants). Per-tenant refusals live in each tenant's manager/pipelines.
func (r *Registry) Rejected() int { return int(r.rejected.Load()) }

// refuse books n registry-level refusals: the counter and the journal's
// Rejected record. ingestBatchInto books a frame's worth at once.
func (r *Registry) refuse(n int) {
	r.rejected.Add(int64(n))
	if j := r.journal; j != nil {
		j.Append(Record{Kind: Rejected, Level: LevelRegistry, Count: n})
	}
}

// lookup resolves a peeked service-name view without allocating: indexing
// a map by string(bytes) compiles to an allocation-free lookup.
func (r *Registry) lookup(name []byte) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[string(name)]
}

// Ingest routes one encoded contribution to its tenant's round: a frame of
// one through ingestBatchInto (route.go).
func (r *Registry) Ingest(raw []byte) error {
	raws, errs := [1][]byte{raw}, [1]error{}
	r.ingestBatchInto(raws[:], errs[:])
	return errs[0]
}

// GrantTicket runs the service side of the attested-session-ticket exchange
// for the tenant the request names: the request's one signature is checked
// with the key that verifies the tenant's contributions, the requesting
// enclave's measurement against the tenant's allowlist, and the derived
// session key lands in the tenant's ticket table — after which every
// contribution of the session pays a constant-time MAC instead.
// Control-plane refusals — unknown tenant included — return to the caller
// without touching the rejection counters, which account contributions
// only.
func (r *Registry) GrantTicket(raw []byte) ([]byte, error) {
	req, err := wire.DecodeTicketRequest(raw)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	t, ok := r.Tenant(req.Service)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, req.Service)
	}
	rc := t.manager.cfg
	if rc.tickets == nil {
		return nil, ErrTicketsDisabled
	}
	return rc.tickets.Grant(rc.Name, rc.Verify, rc.allow.admits, req)
}

// ResolveHost returns the enclave configuration and provisioning hook for
// the named tenant — the gaas.HostResolver side of the registry. An empty
// name resolves only when exactly one tenant is registered (the
// single-tenant deployment's legacy hello).
func (r *Registry) ResolveHost(name string) (glimmer.Config, func(*glimmer.Device) error, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := r.tenants[name]
	if t == nil && name == "" && len(r.tenants) == 1 {
		for _, only := range r.tenants {
			t = only
		}
	}
	if t == nil {
		return glimmer.Config{}, nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	if t.cfg.Glimmer.ServiceName == "" {
		return glimmer.Config{}, nil, fmt.Errorf("service: tenant %q does not host glimmers", name)
	}
	return t.cfg.Glimmer, t.cfg.Provision, nil
}
