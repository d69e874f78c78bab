package service

import (
	"fmt"
	"sync"

	"glimmers/internal/glimmer"
)

// routeScratch pools the grouping bookkeeping the router pays per frame, so
// routing a frame builds no map and no index slice. Groups are processed in
// first-seen submission order (deterministic, unlike a map's iteration);
// membership is a rescan rather than stored per-group lists, which is
// O(groups × items) with a group count that is almost always 1.
type routeScratch struct {
	tenants []*Tenant // nil: refused by the registry
	rounds  []uint64
	done    []bool // routed to a round group, or refused by its tenant
	batch   [][]byte
	idx     []int
	errs    []error
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

func getRouteScratch(n int) *routeScratch {
	rs := routePool.Get().(*routeScratch)
	if cap(rs.rounds) < n {
		rs.rounds = make([]uint64, n)
		rs.tenants = make([]*Tenant, n)
		rs.done = make([]bool, n)
	}
	rs.rounds = rs.rounds[:n]
	rs.tenants = rs.tenants[:n]
	rs.done = rs.done[:n]
	for i := 0; i < n; i++ {
		rs.done[i] = false
	}
	return rs
}

// release drops every view and pointer the scratch took into the caller's
// batch before pooling it — the same must-not-retain contract the ingest
// arena honors. batch is cleared to capacity: its length is that of the
// last group, and an earlier, larger group left views past it.
func (rs *routeScratch) release() {
	clear(rs.batch[:cap(rs.batch)])
	clear(rs.tenants)
	clear(rs.errs)
	routePool.Put(rs)
}

// errSlots returns n zeroed error slots backed by the scratch.
func (rs *routeScratch) errSlots(n int) []error {
	if cap(rs.errs) < n {
		rs.errs = make([]error, n)
	}
	rs.errs = rs.errs[:n]
	for i := range rs.errs {
		rs.errs[i] = nil
	}
	return rs.errs
}

// IngestBatch routes a batch of encoded contributions, grouping them by
// tenant and round so each group runs its round's ingest plan. It returns
// the number accepted and one error slot per input, aligned with raws. The
// routing peeks allocate nothing; the grouping bookkeeping is pooled.
func (r *Registry) IngestBatch(raws [][]byte) (int, []error) {
	errs := make([]error, len(raws))
	return r.ingestBatchInto(raws, errs), errs
}

// ingestBatchInto is IngestBatch writing into the caller's error slots,
// which must be nil on entry and aligned with raws. It is the one router:
// one peek pass names each item's tenant and round, then tenants are
// routed in first-seen order and, within each, rounds in first-seen order.
// Each layer books what it refuses once for the frame: the registry
// unroutable bytes and unknown tenants, before any tenant runs; a tenant's
// manager its items without a round and its failed round admissions, after
// the tenant's rounds; each round, its own refusals.
func (r *Registry) ingestBatchInto(raws [][]byte, errs []error) int {
	rs := getRouteScratch(len(raws))
	defer rs.release()
	unroutable := 0
	for i, raw := range raws {
		name, err := glimmer.PeekContributionService(raw)
		if err != nil {
			errs[i] = fmt.Errorf("service: %w", err)
			unroutable++
			continue
		}
		t := r.lookup(name)
		if t == nil {
			errs[i] = fmt.Errorf("%w: %q", ErrUnknownTenant, name)
			unroutable++
			continue
		}
		rs.tenants[i] = t
		// An item without a round stays unrouted (done false) with its
		// error set: its tenant's manager books it.
		if rs.rounds[i], err = glimmer.PeekContributionRound(raw); err != nil {
			errs[i] = fmt.Errorf("service: %w", err)
		}
	}
	if unroutable > 0 {
		r.refuse(unroutable)
	}
	for first, t := range rs.tenants {
		if t == nil || rs.done[first] {
			continue // refused by the registry, or its tenant is routed
		}
		m, refused := t.manager, 0
		for i := first; i < len(raws); i++ {
			if rs.tenants[i] != t || rs.done[i] {
				continue
			}
			rs.done[i] = true
			if errs[i] != nil { // no round to route to
				refused++
				continue
			}
			round := rs.rounds[i]
			rs.idx = append(rs.idx[:0], i)
			for j := i + 1; j < len(raws); j++ {
				if rs.tenants[j] == t && !rs.done[j] && errs[j] == nil && rs.rounds[j] == round {
					rs.done[j] = true
					rs.idx = append(rs.idx, j)
				}
			}
			p, idx, n := m.admit(round, raws, errs, rs.idx)
			refused += n
			if p == nil {
				continue
			}
			rs.batch = rs.batch[:0]
			for _, k := range idx {
				rs.batch = append(rs.batch, raws[k])
			}
			suberrs := rs.errSlots(len(idx))
			p.addBatchErrs(rs.batch, suberrs)
			for j, err := range suberrs {
				errs[idx[j]] = err
			}
		}
		if refused > 0 {
			m.refuse(refused)
		}
	}
	accepted := 0
	for _, err := range errs {
		if err == nil {
			accepted++
		}
	}
	return accepted
}
