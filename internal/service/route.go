package service

import (
	"fmt"
	"sync"

	"glimmers/internal/glimmer"
)

// routeScratch pools the grouping bookkeeping the batch routers pay per
// call: RoundManager.IngestBatch groups by round, Registry.IngestBatch by
// tenant, and before this both built a fresh map and index slices for every
// batch — per-frame garbage on a path whose whole point is to amortize
// per-frame cost. Groups are processed in first-seen submission order
// (deterministic, unlike the map iteration it replaces); membership is a
// rescan rather than stored per-group lists, which is O(groups × items)
// with a group count that is almost always 1.
type routeScratch struct {
	rounds  []uint64
	tenants []*Tenant
	done    []bool
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
// round so each group runs the pipeline's ingest plan. It returns the
// number accepted and one error slot per input, aligned with raws.
func (m *RoundManager) IngestBatch(raws [][]byte) (int, []error) {
	errs := make([]error, len(raws))
	return m.ingestBatchInto(raws, errs), errs
}

// ingestBatchInto is IngestBatch writing into the caller's error slots,
// which must be nil on entry and aligned with raws. A contribution for a
// round with no live pipeline must fully verify before the round is created
// (preverify); it then verifies once more inside the pipeline, a double cost
// only each round's first contribution pays. What the manager itself refuses
// — unroutable bytes, failed admission — is booked once for the frame.
func (m *RoundManager) ingestBatchInto(raws [][]byte, errs []error) int {
	rs := getRouteScratch(len(raws))
	defer rs.release()
	refused := 0
	for i, raw := range raws {
		round, err := glimmer.PeekContributionRound(raw)
		if err != nil {
			errs[i] = fmt.Errorf("service: %w", err)
			refused++
			rs.done[i] = true
			continue
		}
		rs.rounds[i] = round
	}
	for i := range raws {
		if rs.done[i] {
			continue
		}
		round := rs.rounds[i]
		rs.idx = rs.idx[:0]
		for j := i; j < len(raws); j++ {
			if !rs.done[j] && rs.rounds[j] == round {
				rs.done[j] = true
				rs.idx = append(rs.idx, j)
			}
		}
		idx := rs.idx
		p, ok := m.Lookup(round)
		start := 0
		if !ok {
			// Gate creation of an unseen round on its first verifying
			// contribution; items failing the gate are rejected here.
			for ; start < len(idx) && p == nil; start++ {
				if err := m.preverify(raws[idx[start]]); err != nil {
					errs[idx[start]] = err
					refused++
					continue
				}
				var cerr error
				if p, cerr = m.ingestRound(round); cerr != nil {
					for _, k := range idx[start:] {
						errs[k] = cerr
					}
					refused += len(idx) - start
					break
				}
				start-- // re-include the verifying item in the batch
			}
			if p == nil {
				continue
			}
		}
		rs.batch = rs.batch[:0]
		for _, k := range idx[start:] {
			rs.batch = append(rs.batch, raws[k])
		}
		suberrs := rs.errSlots(len(rs.batch))
		p.AddBatchErrs(rs.batch, suberrs)
		for j, err := range suberrs {
			errs[idx[start+j]] = err
		}
	}
	if refused > 0 {
		m.refuse(refused)
	}
	accepted := 0
	for _, err := range errs {
		if err == nil {
			accepted++
		}
	}
	return accepted
}

// IngestBatch routes a batch of encoded contributions, grouping them by
// tenant so each tenant's sub-batch rides its own manager (which groups
// further by round). It returns the number accepted and one error slot per
// input, aligned with raws. The routing peek itself allocates nothing; the
// grouping bookkeeping is pooled.
func (r *Registry) IngestBatch(raws [][]byte) (int, []error) {
	errs := make([]error, len(raws))
	return r.ingestBatchInto(raws, errs), errs
}

// ingestBatchInto is IngestBatch writing into the caller's error slots,
// which must be nil on entry and aligned with raws. What the registry itself
// refuses — unroutable bytes, unknown tenants — is booked once for the frame.
func (r *Registry) ingestBatchInto(raws [][]byte, errs []error) int {
	rs := getRouteScratch(len(raws))
	defer rs.release()
	refused := 0
	for i, raw := range raws {
		name, err := glimmer.PeekContributionService(raw)
		if err != nil {
			errs[i] = fmt.Errorf("service: %w", err)
			refused++
			rs.done[i] = true
			continue
		}
		t := r.lookup(name)
		if t == nil {
			errs[i] = fmt.Errorf("%w: %q", ErrUnknownTenant, name)
			refused++
			rs.done[i] = true
			continue
		}
		rs.tenants[i] = t
	}
	if refused > 0 {
		r.refuse(refused)
	}
	accepted := 0
	for i := range raws {
		if rs.done[i] {
			continue
		}
		t := rs.tenants[i]
		rs.idx = rs.idx[:0]
		rs.batch = rs.batch[:0]
		for j := i; j < len(raws); j++ {
			if !rs.done[j] && rs.tenants[j] == t {
				rs.done[j] = true
				rs.idx = append(rs.idx, j)
				rs.batch = append(rs.batch, raws[j])
			}
		}
		terrs := rs.errSlots(len(rs.batch))
		accepted += t.manager.ingestBatchInto(rs.batch, terrs)
		for j, err := range terrs {
			errs[rs.idx[j]] = err
		}
	}
	return accepted
}
