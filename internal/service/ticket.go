package service

import (
	"container/heap"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"glimmers/internal/tee"
	"glimmers/internal/wire"
	"glimmers/internal/xcrypto"
)

// The service half of attested session tickets: a bounded per-tenant table
// mapping ticket IDs to AES-256 session keys, filled by Grant (one signature
// verification per session — the amortized cost) and consulted by the
// ingest hot path (a lock-brief map read plus a GMAC check per contribution
// — the far cheaper steady state). A key's AEAD is derived state: the table
// caches it only for tickets that keep contributing, and never persists it.

// Ticket policy errors surfaced by granting and by ticketed ingest.
var (
	// ErrTicketsDisabled is returned by Registry.GrantTicket when the
	// tenant has no ticket policy configured.
	ErrTicketsDisabled = errors.New("service: session tickets not enabled")
	// ErrUnknownTicket is returned when a contribution names a ticket the
	// table does not hold (never granted, evicted, or another tenant's).
	ErrUnknownTicket = errors.New("service: unknown session ticket")
	// ErrTicketExpired is returned once a ticket's expiry has passed; the
	// client re-runs the grant exchange to renew.
	ErrTicketExpired = errors.New("service: session ticket expired")
	// ErrTicketWindow is returned when a contribution names a round outside
	// the ticket's granted window — the binding that bounds what a stolen
	// session key can replay or pre-sign.
	ErrTicketWindow = errors.New("service: round outside ticket window")
	// ErrBadMAC is returned when the session MAC does not verify.
	ErrBadMAC = errors.New("service: contribution MAC invalid")
)

// Ticket-table sizing defaults.
const (
	// DefaultMaxTickets bounds one tenant's live ticket table.
	DefaultMaxTickets = 4096
	// DefaultTicketTTL is the grant lifetime in seconds.
	DefaultTicketTTL = 3600
	// DefaultMaxTicketWindow caps the round span one grant may cover;
	// wider requests are clamped, and the clamped window is what the grant
	// returns.
	DefaultMaxTicketWindow = 1024
)

// TicketConfig is a tenant's ticket policy.
type TicketConfig struct {
	// MaxTickets bounds the table (<= 0 means DefaultMaxTickets). At the
	// bound, granting evicts the soonest-expiring ticket: the one whose
	// holder must renew soonest anyway.
	MaxTickets int
	// TTL is the grant lifetime in seconds (<= 0 means DefaultTicketTTL).
	TTL int64
	// Now supplies the clock (Unix seconds); nil means time.Now. Tests and
	// the deterministic simulator inject their own.
	Now func() int64
}

func (c TicketConfig) withDefaults() TicketConfig {
	if c.MaxTickets <= 0 {
		c.MaxTickets = DefaultMaxTickets
	}
	if c.TTL <= 0 {
		c.TTL = DefaultTicketTTL
	}
	// Cache the clock at construction: the expiry check runs on the
	// ingest hot path, and resolving the nil-vs-injected choice there
	// cost a branch per check.
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().Unix() }
	}
	return c
}

// ticketEntry is one live ticket. Entries are values, so the hot path
// copies an entry out of the table instead of sharing pointers.
type ticketEntry struct {
	key                   xcrypto.SessionKey
	roundFirst, roundLast uint64
	expiresUnix           int64
	// aead is the key's AES-GCM instance, cached from the ticket's second
	// check on (checked marks the first). A session that contributes once
	// — most of them — never makes the table hold its ~1 KB of key schedule
	// and GHASH tables; one that keeps contributing builds it twice, then
	// never again. Neither field is persisted.
	aead    cipher.AEAD
	checked bool
	// seq orders entries by when this table gained them (grant, or replay
	// order after a restore); it breaks eviction ties and is not persisted.
	seq uint64
}

// TicketTable holds one tenant's live session tickets. All methods are
// safe for concurrent use; check is the only one on the hot path.
type TicketTable struct {
	cfg TicketConfig

	mu      sync.RWMutex
	entries map[uint64]ticketEntry
	nextSeq uint64
	// expiry orders the table for eviction: soonest expiry first, oldest
	// grant first on a tie. Deletion is lazy — an item whose ID is gone
	// from entries, or is there under a newer seq, is stale and skipped —
	// so removing a ticket during replay never searches the heap.
	expiry expiryHeap

	// tenant/journal route grant and evict events to the durable journal
	// (see state.go); set via Registry.SetJournal before traffic.
	tenant  string
	journal Journal
}

// newTicketTable creates a table under the given policy.
func newTicketTable(cfg TicketConfig) *TicketTable {
	return &TicketTable{cfg: cfg.withDefaults(), entries: make(map[uint64]ticketEntry)}
}

// now reads the clock. withDefaults installed a concrete func either way,
// so the expiry check on the ingest hot path pays one indirect call, not
// a nil test plus time.Now's interface machinery.
func (t *TicketTable) now() int64 { return t.cfg.Now() }

// Len reports the live ticket count.
func (t *TicketTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// journalInsert appends the evict and grant records of one insert,
// outside the table lock.
func (t *TicketTable) journalInsert(j Journal, tenant string, evicted []uint64, id uint64, e ticketEntry) {
	if j == nil {
		return
	}
	for _, v := range evicted {
		j.Append(Record{Kind: TicketEvicted, Tenant: tenant, Ticket: TicketState{ID: v}})
	}
	j.Append(Record{Kind: TicketGranted, Tenant: tenant, Ticket: TicketState{
		ID: id, Key: e.key,
		RoundFirst: e.roundFirst, RoundLast: e.roundLast,
		ExpiresUnix: e.expiresUnix,
	}})
}

// insertLocked adds an entry, enforcing the bound: at the cap every
// expired ticket is dropped, then, if the table is still full, the
// soonest-expiring live one. Expiry has one-second resolution, so a burst
// of grants ties; the oldest grant goes first — IDs are random, and
// breaking the tie by ID could evict the ticket a session granted
// milliseconds ago is about to use. Victims come off the expiry heap, so a
// grant at the cap costs O(log n) under the write lock that check's
// readers wait on, not two walks of the table. It returns the removed IDs
// so the caller can journal them — replay re-applies recorded removals
// instead of re-running this policy, which keeps replay clock-independent.
func (t *TicketTable) insertLocked(id uint64, e ticketEntry) (evicted []uint64) {
	if len(t.entries) >= t.cfg.MaxTickets {
		now := t.now()
		for len(t.expiry) > 0 {
			top := t.expiry[0]
			if cur, ok := t.entries[top.id]; ok && cur.seq == top.seq {
				if now <= top.expiresUnix && len(t.entries) < t.cfg.MaxTickets {
					break
				}
				delete(t.entries, top.id)
				if t.journal != nil {
					evicted = append(evicted, top.id)
				}
			}
			heap.Pop(&t.expiry)
		}
	}
	t.putLocked(id, e)
	return evicted
}

// putLocked stores an entry under the next grant sequence number.
func (t *TicketTable) putLocked(id uint64, e ticketEntry) {
	e.seq = t.nextSeq
	t.nextSeq++
	t.entries[id] = e
	if len(t.expiry) >= 2*len(t.entries)+staleExpirySlack {
		// Mostly stale (a long replay of grants and evictions, or one ID
		// installed over and over): rebuild from the table.
		t.expiry = t.expiry[:0]
		for k, v := range t.entries {
			t.expiry = append(t.expiry, ticketExpiry{v.expiresUnix, v.seq, k})
		}
		heap.Init(&t.expiry)
		return
	}
	heap.Push(&t.expiry, ticketExpiry{e.expiresUnix, e.seq, id})
}

// staleExpirySlack keeps small tables from rebuilding their heap on every
// other insert.
const staleExpirySlack = 64

// ticketExpiry is one ticket's place in the eviction order.
type ticketExpiry struct {
	expiresUnix int64
	seq         uint64
	id          uint64
}

// expiryHeap is a container/heap min-heap on (expiresUnix, seq).
type expiryHeap []ticketExpiry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	return h[i].expiresUnix < h[j].expiresUnix || h[i].expiresUnix == h[j].expiresUnix && h[i].seq < h[j].seq
}
func (h expiryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)   { *h = append(*h, x.(ticketExpiry)) }
func (h *expiryHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// check is the ingest hot path: resolve the ticket and enforce expiry at
// now (a reading of the table clock, which the caller may reuse across a
// frame) and the round window, returning the AEAD that checks the ticket's
// MACs. For a
// ticket checked at least twice before, that is one map read under the read
// lock and zero allocations. Its first two checks build the AEAD (the
// second also caches it, under the write lock); an expired ticket's cached
// AEAD is dropped, since nothing can verify under it again.
func (t *TicketTable) check(id, round uint64, now int64) (cipher.AEAD, error) {
	t.mu.RLock()
	e, ok := t.entries[id]
	t.mu.RUnlock()
	if !ok {
		return nil, ErrUnknownTicket
	}
	if now > e.expiresUnix {
		if e.aead != nil {
			t.update(id, e.seq, func(cur *ticketEntry) { cur.aead = nil })
		}
		return nil, ErrTicketExpired
	}
	if round < e.roundFirst || round > e.roundLast {
		return nil, ErrTicketWindow
	}
	if e.aead != nil {
		return e.aead, nil
	}
	aead := xcrypto.NewSessionAEAD(&e.key)
	t.update(id, e.seq, func(cur *ticketEntry) {
		if cur.checked && cur.aead == nil {
			cur.aead = aead
		}
		cur.checked = true
	})
	return aead, nil
}

// update applies fn to the entry id holds, under the write lock, if
// it is still the one granted under seq: a ticket evicted or re-installed
// since the caller read it is left alone.
func (t *TicketTable) update(id, seq uint64, fn func(*ticketEntry)) {
	t.mu.Lock()
	if cur, ok := t.entries[id]; ok && cur.seq == seq {
		fn(&cur)
		t.entries[id] = cur
	}
	t.mu.Unlock()
}

// Grant runs the service side of the ticket exchange on an already-decoded
// request: verify its signature (the session's one asymmetric check;
// skipped when verify is nil, the pre-authenticated mode), apply the
// measurement allowlist, clamp the window, complete the X25519 exchange,
// register the derived session key, and return the encoded grant. The
// grant carries no secret — only the two DH ends can derive the key.
func (t *TicketTable) Grant(serviceName string, verify *xcrypto.VerifyKey,
	vetted func(tee.Measurement) bool, req wire.TicketRequest) ([]byte, error) {
	if req.Service != serviceName {
		return nil, ErrWrongService
	}
	if verify != nil && !verify.Verify(req.SignedBytes(), req.Signature) {
		return nil, ErrBadSignature
	}
	var meas tee.Measurement
	copy(meas[:], req.Measurement)
	if !vetted(meas) {
		return nil, ErrUnknownGlimmer
	}
	if req.RoundLast < req.RoundFirst {
		return nil, fmt.Errorf("service: ticket window [%d, %d] is inverted", req.RoundFirst, req.RoundLast)
	}
	first, last := req.RoundFirst, req.RoundLast
	if span := last - first; span > DefaultMaxTicketWindow {
		last = first + DefaultMaxTicketWindow
	}
	eph, err := xcrypto.NewDHKey()
	if err != nil {
		return nil, fmt.Errorf("service: ticket DH key: %w", err)
	}
	shared, err := eph.Shared(req.DevicePub)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	id, err := t.mintID()
	if err != nil {
		return nil, err
	}
	expires := t.now() + t.cfg.TTL
	e := ticketEntry{
		key:         xcrypto.DeriveTicketKey(shared, serviceName, id),
		roundFirst:  first,
		roundLast:   last,
		expiresUnix: expires,
	}
	t.mu.Lock()
	evicted := t.insertLocked(id, e)
	j, tenant := t.journal, t.tenant
	t.mu.Unlock()
	t.journalInsert(j, tenant, evicted, id, e)
	return wire.EncodeTicketGrant(wire.TicketGrant{
		Service:     serviceName,
		ID:          id,
		ServerPub:   eph.PublicBytes(),
		RoundFirst:  first,
		RoundLast:   last,
		ExpiresUnix: uint64(expires),
	}), nil
}

// mintID draws a fresh random ticket ID not currently in the table.
func (t *TicketTable) mintID() (uint64, error) {
	for {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("service: ticket ID generation: %w", err)
		}
		id := binary.BigEndian.Uint64(b[:])
		t.mu.RLock()
		_, taken := t.entries[id]
		t.mu.RUnlock()
		if !taken {
			return id, nil
		}
	}
}
