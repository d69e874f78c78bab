package sim

import (
	"fmt"
	"sort"
	"strings"
)

// The reports' renderings. Only tests read them: the goldens pin Trace
// byte for byte, and a failing scenario prints its Summary.

func (t Tally) String() string {
	cats := make([]string, 0, len(t))
	for cat := range t {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	parts := make([]string, len(cats))
	for i, cat := range cats {
		parts[i] = fmt.Sprintf("%s=%d", cat, t[cat])
	}
	return strings.Join(parts, " ")
}

// Trace renders the deterministic accept/reject/sum trace: one line per
// round plus a totals line. With Stragglers == 0 the trace is a pure
// function of the configuration (same seed → same trace).
func (r *Report) Trace() string {
	var sb strings.Builder
	for _, rr := range r.Rounds {
		fmt.Fprintf(&sb, "round %d: accepted=%d exact=%v dropouts=%d sum=%s [%s]\n",
			rr.Round, rr.Accepted, rr.Exact, rr.DropoutsRecovered, rr.SumDigest, rr.Tally)
	}
	fmt.Fprintf(&sb, "totals: %s\n", r.Totals)
	return sb.String()
}

// Summary is a one-line human summary.
func (r *Report) Summary() string {
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("%d VIOLATIONS", len(r.Violations))
	}
	return fmt.Sprintf("%s: %d devices × %d rounds over %s, accepted=%d rejected=%d (%0.1f rounds/s) %s",
		r.Scenario, r.Config.Devices, len(r.Rounds), r.Transport,
		r.Totals[CatAccepted]+r.Totals[CatStragglerAccepted],
		r.Totals.ServiceRejections(), r.RoundsPerSec(), status)
}

// Ok reports whether every invariant — per-tenant and cross-tenant — held.
func (r *MultiReport) Ok() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, rep := range r.Reports {
		if !rep.Ok() {
			return false
		}
	}
	return true
}

// Summary is a one-line human summary.
func (r *MultiReport) Summary() string {
	parts := make([]string, len(r.Reports))
	for i, rep := range r.Reports {
		parts[i] = rep.Summary()
	}
	status := "OK"
	if !r.Ok() {
		status = "VIOLATIONS"
	}
	return fmt.Sprintf("%s: %d tenants %s\n  %s", r.Scenario, len(r.Reports), status, strings.Join(parts, "\n  "))
}
