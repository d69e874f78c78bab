package service

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"glimmers/internal/xcrypto"
)

// scanTable is the reference eviction policy: the table's bound enforced
// by walking every entry, as TicketTable did before it kept a heap. At the
// cap every expired ticket goes (soonest expiry, then oldest grant, first),
// then the soonest-expiring live one while the table is still full.
type scanTable struct {
	max     int
	entries map[uint64]ticketExpiry // keyed by ID; the value's id repeats the key
	nextSeq uint64
}

func (o *scanTable) put(id uint64, expires int64) {
	o.entries[id] = ticketExpiry{expiresUnix: expires, seq: o.nextSeq, id: id}
	o.nextSeq++
}

func (o *scanTable) insert(now int64, id uint64, expires int64) (evicted []uint64) {
	before := func(a, b ticketExpiry) bool {
		return a.expiresUnix < b.expiresUnix || a.expiresUnix == b.expiresUnix && a.seq < b.seq
	}
	if len(o.entries) >= o.max {
		var expired []ticketExpiry
		for _, e := range o.entries {
			if now > e.expiresUnix {
				expired = append(expired, e)
			}
		}
		sort.Slice(expired, func(i, j int) bool { return before(expired[i], expired[j]) })
		for _, e := range expired {
			delete(o.entries, e.id)
			evicted = append(evicted, e.id)
		}
	}
	for len(o.entries) >= o.max {
		var victim ticketExpiry
		found := false
		for _, e := range o.entries {
			if !found || before(e, victim) {
				victim, found = e, true
			}
		}
		delete(o.entries, victim.id)
		evicted = append(evicted, victim.id)
	}
	o.put(id, expires)
	return evicted
}

func (o *scanTable) ids() []uint64 {
	out := make([]uint64, 0, len(o.entries))
	for id := range o.entries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// evictionJournal records the ticket records of one insert; the table
// appends no other kind.
type evictionJournal struct {
	evicted []uint64
	granted []uint64
}

func (j *evictionJournal) Append(rec Record) {
	switch rec.Kind {
	case TicketEvicted:
		j.evicted = append(j.evicted, rec.Ticket.ID)
	case TicketGranted:
		j.granted = append(j.granted, rec.Ticket.ID)
	}
}

// TestTicketEvictionMatchesLinearScan is the differential test for the
// expiry heap: seeded random sequences of installs (IDs from a small space,
// so some overwrite), clock advances, replayed removals and full restores
// drive the heap table and the linear-scan reference side by side. After
// every step they must hold the same tickets, and every insert must journal
// the same evictions in the same order, followed by its grant.
func TestTicketEvictionMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			max := 2 + rng.Intn(40)
			now := int64(1000)
			cfg := TicketConfig{MaxTickets: max, Now: func() int64 { return now }}
			j := new(evictionJournal)
			tbl := newTicketTable(cfg)
			tbl.setJournal("t", j)
			ref := &scanTable{max: max, entries: map[uint64]ticketExpiry{}}

			for step := 0; step < 3000; step++ {
				switch op := rng.Intn(100); {
				case op < 80:
					id := uint64(rng.Intn(4 * max))
					expires := now + int64(rng.Intn(6)) - 1 // ties are common; some arrive expired
					j.evicted, j.granted = nil, nil
					tbl.install(id, xcrypto.SessionKey{byte(step)}, 0, 10, expires)
					want := ref.insert(now, id, expires)
					if !reflect.DeepEqual(j.evicted, want) {
						t.Fatalf("step %d: install %d journaled evictions %v, linear scan evicts %v", step, id, j.evicted, want)
					}
					if !reflect.DeepEqual(j.granted, []uint64{id}) {
						t.Fatalf("step %d: install %d journaled grants %v", step, id, j.granted)
					}
				case op < 90:
					now += int64(rng.Intn(4))
				case op < 97:
					// A replayed TicketEvicted record: removal without policy.
					id := uint64(rng.Intn(4 * max))
					tbl.deleteTicket(id)
					delete(ref.entries, id)
				default:
					// Snapshot and restore: entries come back in export (ID)
					// order, which becomes their grant order.
					tickets := tbl.exportTickets()
					tbl = newTicketTable(cfg)
					ref = &scanTable{max: max, entries: map[uint64]ticketExpiry{}}
					for _, tk := range tickets {
						tbl.restoreTicket(tk)
						ref.put(tk.ID, tk.ExpiresUnix)
					}
					tbl.setJournal("t", j)
				}
				got := make([]uint64, 0, tbl.Len())
				for _, tk := range tbl.exportTickets() {
					got = append(got, tk.ID)
				}
				if want := ref.ids(); !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: table holds %v, linear scan holds %v", step, got, want)
				}
				if tbl.Len() > max {
					t.Fatalf("step %d: table holds %d tickets, bound is %d", step, tbl.Len(), max)
				}
				if len(tbl.expiry) > 2*tbl.Len()+staleExpirySlack {
					t.Fatalf("step %d: expiry heap holds %d items for %d tickets", step, len(tbl.expiry), tbl.Len())
				}
			}
		})
	}
}

// BenchmarkTicketGrantAtCap prices one insert into a full default-size
// table: every iteration evicts the soonest-expiring ticket.
func BenchmarkTicketGrantAtCap(b *testing.B) {
	now := int64(1000)
	tbl := newTicketTable(TicketConfig{MaxTickets: DefaultMaxTickets, Now: func() int64 { return now }})
	for i := 0; i < DefaultMaxTickets; i++ {
		tbl.install(uint64(i), xcrypto.SessionKey{byte(i)}, 0, 10, now+DefaultTicketTTL)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.install(uint64(DefaultMaxTickets+i), xcrypto.SessionKey{byte(i)}, 0, 10, now+DefaultTicketTTL)
	}
	if tbl.Len() != DefaultMaxTickets {
		b.Fatalf("table holds %d tickets, want %d", tbl.Len(), DefaultMaxTickets)
	}
}
