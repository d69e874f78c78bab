// Command bench runs the repo's canonical performance suite and emits a
// machine-readable BENCH_<label>.json — the benchmark trajectory artifact
// this repository tracks across PRs and gates in CI.
//
// Usage:
//
//	go run ./cmd/bench -label baseline              # writes BENCH_baseline.json
//	go run ./cmd/bench -benchtime short             # CI-sized workloads
//	go run ./cmd/bench -run 'ingest' -out /dev/null # subset, no artifact
//	go run ./cmd/bench -check BENCH_baseline.json   # regression gate
//
// The JSON schema ("glimmers/bench/v1") is one object:
//
//	{
//	  "schema":  "glimmers/bench/v1",
//	  "label":   "baseline",
//	  "go":      "go1.24.0", "goos": "linux", "goarch": "amd64",
//	  "num_cpu": 8, "gomaxprocs": 8, "benchtime": "full",
//	  "results": [{
//	    "name": "ingest_serial", "iterations": 25,
//	    "ns_per_op": 4.1e7, "bytes_per_op": 123, "allocs_per_op": 4,
//	    "alloc_gated": false,
//	    "metrics": {"contrib_per_sec": 12345.6}
//	  }, ...]
//	}
//
// Results with "alloc_gated": true form the zero/low-allocation contract
// on the ingest decode path; -check compares the current run against a
// committed baseline and fails (exit 1) when any gated allocs/op figure
// regresses by more than 25%. Timing figures are never gated — they vary
// with the machine — but they are recorded so the trajectory across PRs
// stays visible.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"glimmers/internal/durable"
	"glimmers/internal/fixed"
	"glimmers/internal/gaas"
	"glimmers/internal/glimmer"
	"glimmers/internal/predicate"
	"glimmers/internal/service"
	"glimmers/internal/sim"
	"glimmers/internal/tee"
	"glimmers/internal/xcrypto"
)

const schema = "glimmers/bench/v1"

type result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	AllocGated  bool               `json:"alloc_gated,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type report struct {
	Schema string `json:"schema"`
	Label  string `json:"label"`
	// Note carries provenance caveats a reader of the artifact needs —
	// e.g. that a "multicore" run was in fact recorded on one core.
	Note       string   `json:"note,omitempty"`
	Go         string   `json:"go"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	BenchTime  string   `json:"benchtime"`
	Results    []result `json:"results"`
}

// sizes parameterize the workloads; "short" keeps the CI smoke run under a
// minute on one core.
type sizes struct {
	dim         int // contribution dimension for codec + ingest benches
	cohort      int // contributions per ingest cohort
	batchRounds int // pre-generated rounds for the submit-batch benches
	batchItems  int // items per submit-batch frame
	dedupPool   int // distinct contributions for the decode+dedup bench
	simRounds   int
	simDevices  int
	edgeConns   int // concurrent TLS connections for the edge ingest bench
	edgeBatches int // batches each edge connection submits
	edgeItems   int // items per edge batch
}

func sizesFor(mode string) sizes {
	if mode == "short" {
		return sizes{dim: 64, cohort: 64, batchRounds: 8, batchItems: 32, dedupPool: 2048, simRounds: 2, simDevices: 6,
			edgeConns: 128, edgeBatches: 2, edgeItems: 16}
	}
	return sizes{dim: 256, cohort: 512, batchRounds: 16, batchItems: 128, dedupPool: 8192, simRounds: 8, simDevices: 8,
		edgeConns: 1024, edgeBatches: 4, edgeItems: 16}
}

func main() {
	label := flag.String("label", "local", "label recorded in the artifact (and its default filename)")
	out := flag.String("out", "", "output path (default BENCH_<label>.json; empty string after default suppresses nothing, use /dev/null)")
	benchtime := flag.String("benchtime", "full", "workload scale: full or short")
	runPat := flag.String("run", "", "regexp selecting which benchmarks run")
	check := flag.String("check", "", "baseline BENCH_*.json to gate allocs/op regressions against (>25% fails)")
	sweep := flag.String("workers-sweep", "", "comma-separated worker counts: run the scaling sweep (ingest_parallel_wN, ingest_ticketed_parallel_wN) instead of the canonical suite")
	flag.Parse()
	if *benchtime != "full" && *benchtime != "short" {
		fmt.Fprintf(os.Stderr, "bench: -benchtime must be full or short, got %q\n", *benchtime)
		os.Exit(2)
	}
	if *out == "" {
		*out = "BENCH_" + *label + ".json"
	}
	var filter *regexp.Regexp
	if *runPat != "" {
		var err error
		if filter, err = regexp.Compile(*runPat); err != nil {
			fmt.Fprintf(os.Stderr, "bench: bad -run pattern: %v\n", err)
			os.Exit(2)
		}
	}

	rep := report{
		Schema:     schema,
		Label:      *label,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchTime:  *benchtime,
	}
	sz := sizesFor(*benchtime)
	entries := suite(sz)
	if *sweep != "" {
		var err error
		if entries, err = sweepSuite(sz, *sweep); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -workers-sweep: %v\n", err)
			os.Exit(2)
		}
	}
	for _, entry := range entries {
		if filter != nil && !filter.MatchString(entry.name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %-22s ", entry.name)
		res := entry.run()
		res.Name = entry.name
		res.AllocGated = entry.allocGated
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr, "%12.0f ns/op %8d B/op %6d allocs/op%s\n",
			res.NsPerOp, res.BytesPerOp, res.AllocsPerOp, metricsSummary(res.Metrics))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode report: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d results)\n", *out, len(rep.Results))

	if *check != "" {
		if err := gate(rep, *check, filter != nil); err != nil {
			fmt.Fprintf(os.Stderr, "bench: REGRESSION: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "alloc gate: OK (within 25% of baseline)")
	}
}

func metricsSummary(m map[string]float64) string {
	s := ""
	for k, v := range m {
		s += fmt.Sprintf("  %s=%.1f", k, v)
	}
	return s
}

// gate fails when any alloc-gated result regressed >25% over the baseline.
// Only allocs/op is gated: allocation counts are deterministic per
// toolchain, while timings vary with the machine running the suite.
// Unless the run was filtered (-run), a gated baseline entry with no
// matching current result also fails: renaming or dropping a gated
// benchmark must not silently disable its contract.
func gate(cur report, baselinePath string, filtered bool) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse baseline: %w", err)
	}
	if base.Schema != schema {
		return fmt.Errorf("baseline schema %q, want %q", base.Schema, schema)
	}
	baseByName := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		baseByName[r.Name] = r
	}
	curByName := make(map[string]result, len(cur.Results))
	for _, r := range cur.Results {
		curByName[r.Name] = r
	}
	// Parallel entries measure contention, and a baseline recorded on
	// fewer cores than this run never experienced it (a 1-core "parallel"
	// run is serial in all but name). Gating against such a baseline
	// would compare incomparable workloads, so those entries are refused
	// — loudly — instead of gated.
	coreMismatch := base.NumCPU > 0 && base.NumCPU < cur.NumCPU
	var failures []string
	if !filtered {
		for _, b := range base.Results {
			if b.AllocGated {
				if _, ok := curByName[b.Name]; !ok {
					failures = append(failures,
						fmt.Sprintf("%s: gated in baseline but missing from this run", b.Name))
				}
			}
		}
	}
	for _, r := range cur.Results {
		if !r.AllocGated {
			continue
		}
		if coreMismatch && strings.Contains(r.Name, "parallel") {
			fmt.Fprintf(os.Stderr, "bench: not gating %s: baseline recorded on %d core(s), this run has %d\n",
				r.Name, base.NumCPU, cur.NumCPU)
			continue
		}
		b, ok := baseByName[r.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		// ceil(base*1.25) keeps small-integer baselines meaningful: a
		// baseline of 0 allows only 0, a baseline of 4 allows 5.
		limit := b.AllocsPerOp + (b.AllocsPerOp+3)/4
		if r.AllocsPerOp > limit {
			failures = append(failures,
				fmt.Sprintf("%s: %d allocs/op vs baseline %d (limit %d)", r.Name, r.AllocsPerOp, b.AllocsPerOp, limit))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d gated benchmark(s) regressed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

type benchEntry struct {
	name       string
	allocGated bool
	run        func() result
}

// fromBench converts a testing.BenchmarkResult.
func fromBench(br testing.BenchmarkResult) result {
	res := result{
		Iterations:  br.N,
		NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if len(br.Extra) > 0 {
		res.Metrics = make(map[string]float64, len(br.Extra))
		for k, v := range br.Extra {
			res.Metrics[k] = v
		}
	}
	return res
}

// makeRaws fabricates n encoded contributions for round with distinct
// vectors (distinct dedup digests); key == nil leaves them unsigned for
// the pre-authenticated benches.
func makeRaws(n, dim int, round uint64, serviceName string, key *xcrypto.SigningKey) [][]byte {
	raws := make([][]byte, n)
	for i := range raws {
		sc := glimmer.SignedContribution{
			ServiceName: serviceName,
			Round:       round,
			Measurement: tee.Measurement{1},
			Blinded:     make(fixed.Vector, dim),
			Confidence:  1,
		}
		for j := range sc.Blinded {
			sc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + round*31 + uint64(j))
		}
		if key != nil {
			sig, err := key.Sign(sc.SignedBytes())
			if err != nil {
				fatal(err)
			}
			sc.Signature = sig
		}
		raws[i] = glimmer.EncodeSignedContribution(sc)
	}
	return raws
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

func suite(sz sizes) []benchEntry {
	const serviceName = "bench.example"
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		fatal(err)
	}

	return []benchEntry{
		// Gated since the pooled-writer encoder landed: one exact-size
		// allocation per message (down from 11 growth appends).
		{name: "codec_encode_signed", allocGated: true, run: func() result {
			sc, err := glimmer.DecodeSignedContribution(makeRaws(1, sz.dim, 1, serviceName, key)[0])
			if err != nil {
				fatal(err)
			}
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if len(glimmer.EncodeSignedContribution(sc)) == 0 {
						fatal(fmt.Errorf("empty encoding"))
					}
				}
			}))
		}},

		{name: "mac_verify", allocGated: true, run: func() result {
			// The amortized fast path's per-contribution authenticity check
			// in isolation: one HMAC-SHA256 over a ticketed preimage of the
			// suite's dimensionality, on warm pooled state. This is what
			// replaces the ~100 µs ECDSA verify; it is pinned at 0 allocs/op.
			var key xcrypto.SessionKey
			key[0] = 1
			tc := glimmer.TicketedContribution{
				ServiceName: serviceName,
				Round:       1,
				TicketID:    7,
				Blinded:     make(fixed.Vector, sz.dim),
				Confidence:  1,
			}
			raw := glimmer.SealTicketedContribution(tc, &key)
			var s glimmer.TicketScratch
			preimage, err := s.Decode(raw)
			if err != nil {
				fatal(err)
			}
			mac := s.TC.MAC
			var m xcrypto.MACState
			if !m.Verify(&key, preimage, mac) {
				fatal(fmt.Errorf("seeded MAC does not verify"))
			}
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !m.Verify(&key, preimage, mac) {
						fatal(fmt.Errorf("MAC verify failed"))
					}
				}
			}))
		}},

		{name: "mac_verify_batch", allocGated: true, run: func() result {
			// One op is a frame's worth of MAC checks under a single session
			// key: MACState.VerifyBatch computes the keyed pad states once
			// (SetKey) and each message then costs a state restore plus its
			// own hashing. Divide ns_per_op by the batch size — or read
			// mac_per_sec — to compare against mac_verify's per-message
			// figure; the delta is the amortized key schedule.
			var skey xcrypto.SessionKey
			skey[0] = 1
			n := sz.batchItems
			msgs := make([][]byte, n)
			macs := make([][]byte, n)
			ok := make([]bool, n)
			var s glimmer.TicketScratch
			for i := 0; i < n; i++ {
				tc := glimmer.TicketedContribution{
					ServiceName: serviceName,
					Round:       1,
					TicketID:    7,
					Blinded:     make(fixed.Vector, sz.dim),
					Confidence:  1,
				}
				for j := range tc.Blinded {
					tc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + uint64(j))
				}
				preimage, err := s.Decode(glimmer.SealTicketedContribution(tc, &skey))
				if err != nil {
					fatal(err)
				}
				msgs[i] = append([]byte(nil), preimage...)
				macs[i] = append([]byte(nil), s.TC.MAC...)
			}
			var m xcrypto.MACState
			if m.VerifyBatch(&skey, msgs, macs, ok) != n {
				fatal(fmt.Errorf("seeded MAC batch does not verify"))
			}
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if m.VerifyBatch(&skey, msgs, macs, ok) != n {
						fatal(fmt.Errorf("MAC batch verify failed"))
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "mac_per_sec")
			}))
		}},

		{name: "vector_accumulate", allocGated: true, run: func() result {
			// The shard phase's inner loop in isolation: one op accumulates a
			// frame's worth of wire-encoded vectors into one accumulator via
			// fixed.AccumulateWireInto — big-endian lane bytes straight into
			// the ring sum, no intermediate decode buffer.
			n := sz.batchItems
			lanes := make([][]byte, n)
			for i := range lanes {
				v := make(fixed.Vector, sz.dim)
				for j := range v {
					v[j] = fixed.Ring(uint64(i)*1000003 + uint64(j) + 1)
				}
				lanes[i] = v.AppendWire(nil)
			}
			dst := fixed.NewVector(sz.dim)
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, be := range lanes {
						fixed.AccumulateWireInto(dst, be)
					}
				}
				b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "contrib_per_sec")
				b.ReportMetric(float64(n*b.N*sz.dim*8)/1e6/b.Elapsed().Seconds(), "mb_per_sec")
			}))
		}},

		// Gated since the decode scratch moved to a pool: the remaining
		// allocations are the three copies the value-semantics API promises
		// (vector, signature, signed-bytes) — machine-independent.
		{name: "codec_decode_signed", allocGated: true, run: func() result {
			raw := makeRaws(1, sz.dim, 1, serviceName, key)[0]
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := glimmer.DecodeSignedContributionBytes(raw); err != nil {
						fatal(err)
					}
				}
			}))
		}},

		{name: "decode_signed_scratch", allocGated: true, run: func() result {
			raws := makeRaws(64, sz.dim, 1, serviceName, key)
			var s glimmer.ContributionScratch
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := s.Decode(raws[i%len(raws)]); err != nil {
						fatal(err)
					}
				}
			}))
		}},

		{name: "peek_round", allocGated: true, run: func() result {
			raw := makeRaws(1, sz.dim, 9, serviceName, key)[0]
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					round, err := glimmer.PeekContributionRound(raw)
					if err != nil || round != 9 {
						fatal(fmt.Errorf("round=%d err=%v", round, err))
					}
				}
			}))
		}},

		{name: "ingest_decode_dedup", allocGated: true, run: func() result {
			// The steady-state decode→dedup→accumulate path in isolation:
			// signature verification disabled (nil Verify), dedup maps
			// pre-sized. This is the path the tentpole drives to zero
			// allocations.
			raws := makeRaws(sz.dedupPool, 64, 3, serviceName, nil)
			newPipe := func() *service.Pipeline {
				return service.NewPipeline(service.PipelineConfig{
					ServiceName:    serviceName,
					Dim:            64,
					Round:          3,
					Workers:        1,
					Shards:         1,
					ExpectedCohort: sz.dedupPool,
				})
			}
			return fromBench(testing.Benchmark(func(b *testing.B) {
				p := newPipe()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%len(raws) == 0 && i > 0 {
						b.StopTimer()
						p.Close()
						p = newPipe()
						b.StartTimer()
					}
					if err := p.Add(raws[i%len(raws)]); err != nil {
						fatal(err)
					}
				}
				b.StopTimer()
				p.Close()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "contrib_per_sec")
			}))
		}},

		{name: "route_peek", allocGated: true, run: func() result {
			// The tenant router's header peek: the PR-3 zero-allocation
			// ingest path must survive frame-level routing, so the peek is
			// pinned at 0 allocs/op.
			raws := makeRaws(64, sz.dim, 1, serviceName, key)
			return fromBench(testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					name, err := glimmer.PeekContributionService(raws[i%len(raws)])
					if err != nil || len(name) == 0 {
						fatal(fmt.Errorf("peek: name=%q err=%v", name, err))
					}
				}
			}))
		}},

		{name: "multitenant_ingest", allocGated: true, run: func() result {
			// Frame-level routing under a heterogeneous workload: one
			// registry, three tenants (two range tenants and a botdetect
			// tenant's one-bit verdicts), every batch interleaving all
			// three. Signature verification is off and dedup shards are
			// pre-sized, isolating the routing + decode + dedup overhead —
			// directly comparable to ingest_decode_dedup's single-tenant
			// figure. One op is one routed batch.
			type tenantShape struct {
				name string
				dim  int
			}
			shapes := []tenantShape{
				{"maps.bench.example", 64},
				{"keyboard.bench.example", 64},
				{"botdetect.bench.example", 1},
			}
			perTenant := sz.batchItems
			newReg := func() *service.Registry {
				reg := service.NewRegistry(0)
				for _, shape := range shapes {
					if _, err := reg.AddTenant(service.TenantConfig{
						Name:           shape.name,
						Dim:            shape.dim,
						ExpectedCohort: perTenant * sz.batchRounds,
					}); err != nil {
						fatal(err)
					}
				}
				return reg
			}
			// batchRounds distinct interleaved batches, reused round-robin,
			// with vectors unique per (batch, item) so dedup never fires.
			batches := make([][][]byte, sz.batchRounds)
			for r := range batches {
				batch := make([][]byte, 0, perTenant*len(shapes))
				for i := 0; i < perTenant; i++ {
					for s, shape := range shapes {
						sc := glimmer.SignedContribution{
							ServiceName: shape.name,
							Round:       1,
							Measurement: tee.Measurement{1},
							Blinded:     make(fixed.Vector, shape.dim),
							Confidence:  1,
						}
						for d := range sc.Blinded {
							sc.Blinded[d] = fixed.Ring(uint64(r)*1000003 +
								uint64(i)*1009 + uint64(s)*31 + uint64(d) + 1)
						}
						batch = append(batch, glimmer.EncodeSignedContribution(sc))
					}
				}
				batches[r] = batch
			}
			return fromBench(testing.Benchmark(func(b *testing.B) {
				reg := newReg()
				b.ReportAllocs()
				b.ResetTimer()
				items := 0
				for i := 0; i < b.N; i++ {
					if i%len(batches) == 0 && i > 0 {
						b.StopTimer()
						reg = newReg()
						b.StartTimer()
					}
					batch := batches[i%len(batches)]
					accepted, _ := reg.IngestBatch(batch)
					if accepted != len(batch) {
						fatal(fmt.Errorf("routed batch accepted %d of %d", accepted, len(batch)))
					}
					items += len(batch)
				}
				b.StopTimer()
				b.ReportMetric(float64(items)/b.Elapsed().Seconds(), "contrib_per_sec")
			}))
		}},

		{name: "ingest_serial", run: func() result {
			return fromBench(benchIngest(sz, serviceName, key, 1, 1))
		}},

		{name: "ingest_parallel", run: func() result {
			return fromBench(benchIngest(sz, serviceName, key, runtime.GOMAXPROCS(0), 0))
		}},

		// Gated: the serial fast path's per-cohort allocation count is a
		// machine-independent constant (pipeline construction aside, the
		// per-contribution path is zero-alloc), so a regression here means
		// the MAC path started allocating.
		{name: "ingest_ticketed_serial", allocGated: true, run: func() result {
			// The same cohort-through-a-fresh-pipeline shape as
			// ingest_serial, with every contribution MAC'd under a session
			// ticket instead of ECDSA-signed, fed one Add at a time: this is
			// the per-item reference the batch plan's entries divide against.
			return fromBench(benchTicketedIngest(sz, serviceName, 1, 1))
		}},

		// Not gated, like ingest_parallel: goroutine fan-out costs scale
		// with the runner's core count.
		{name: "ingest_ticketed_parallel", run: func() result {
			return fromBench(benchTicketedIngest(sz, serviceName, runtime.GOMAXPROCS(0), 0))
		}},

		// Gated at zero: one op is one AddBatchErrs frame through the batch
		// plan — per-batch arena, batch-amortized MACs, bulk shard
		// accumulation — into a warm pipeline with a caller-owned error
		// slice, so the steady state allocates nothing at all. Pipeline
		// turnover happens off the clock (StopTimer), which also pauses the
		// allocation accounting.
		{name: "ingest_ticketed_batch", allocGated: true, run: func() result {
			return fromBench(benchTicketedBatchIngest(sz, serviceName, 1, 1))
		}},

		// Not gated: with Workers > 1 each frame is chunked across the
		// pipeline's worker pool, whose handoff allocations scale with the
		// runner's core count. On a multi-core runner this entry carries the
		// batch plan's headline multiple over ingest_ticketed_serial; on one
		// core it degenerates to the serial figure by construction.
		{name: "ingest_ticketed_batch_parallel", run: func() result {
			return fromBench(benchTicketedBatchIngest(sz, serviceName, runtime.GOMAXPROCS(0), 0))
		}},

		// Gated: ingest_ticketed_batch with a live WAL journal attached —
		// the group-commit acceptance figure. The hot path pays one pooled
		// record encode plus a staging append per frame; the disk writes
		// happen on the background flusher's clock. Compare ns_per_op
		// against ingest_ticketed_batch: the gap is the full durability tax
		// on the ingest path, and the design target is single-digit
		// percent. The per-op allocations (the journaled digest list and
		// delta vector) are deterministic, so the entry is gated.
		{name: "ingest_durable_batch", allocGated: true, run: func() result {
			return fromBench(benchDurableBatchIngest(sz, serviceName, 1, 1))
		}},

		// Gated: the journal append path in isolation — one op stages one
		// BatchAccepted record (pooled encoder, CRC frame, staging append)
		// with no pipeline in front. records_per_write is the group-commit
		// coalescing ratio the run achieved; the write path's contract is
		// that it stays well above 10.
		{name: "wal_append", allocGated: true, run: func() result {
			return fromBench(benchWALAppend(sz, serviceName))
		}},

		{name: "submit_batch_inproc", run: func() result {
			batches := batchesByRound(sz, serviceName, key)
			newMgr := func() *service.RoundManager {
				return service.NewRoundManager(service.PipelineConfig{
					ServiceName:    serviceName,
					Verify:         key.Public(),
					Dim:            sz.dim,
					ExpectedCohort: sz.batchItems,
				})
			}
			return fromBench(testing.Benchmark(func(b *testing.B) {
				mgr := newMgr()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%len(batches) == 0 {
						b.StopTimer()
						for r := range batches {
							mgr.Forget(uint64(r) + 1)
						}
						b.StartTimer()
					}
					accepted, _ := mgr.IngestBatch(batches[i%len(batches)])
					if accepted != sz.batchItems {
						fatal(fmt.Errorf("accepted %d of %d", accepted, sz.batchItems))
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N*sz.batchItems)/b.Elapsed().Seconds(), "contrib_per_sec")
			}))
		}},

		{name: "submit_batch_pipe", run: func() result {
			return fromBench(benchSubmitTransport(sz, serviceName, key, false))
		}},

		{name: "submit_batch_tcp", run: func() result {
			return fromBench(benchSubmitTransport(sz, serviceName, key, true))
		}},

		// Not gated: TLS record-layer allocations vary with GC and buffer
		// reuse timing, so only the sustained throughput figure is tracked.
		// One "iteration" is one connection's worth of batches; the headline
		// is contrib_per_sec over edgeConns concurrent TLS connections
		// (1024 in full mode — raise edgeConns for a 10k+ run on a real
		// runner with the fd budget to match).
		{name: "edge_tls_ingest", run: func() result {
			return benchEdgeTLSIngest(sz, serviceName)
		}},

		// Fleet: one op is one round-merge at the coordinator — verify and
		// fold three signed partial seals (each carrying a third of the
		// cohort's dedup digests) into completion. This is the cross-node
		// cost sharding adds per round; merge_per_sec is its headline.
		{name: "fleet_merge", run: func() result {
			return fromBench(benchFleetMerge(sz, serviceName, key))
		}},

		// Fleet: one op is one full round across three in-process nodes —
		// each node ingests its third of the cohort through the ticketed
		// batch plan on its own goroutine, seals a signed partial, and a
		// coordinator merges the three. contrib_per_sec aggregates across
		// the nodes; divide against ingest_ticketed_batch for the scale-out
		// multiple (on a 1-core runner it is ≤ 1× by construction — the
		// nodes time-slice one CPU and the merge is pure overhead).
		{name: "fleet_ingest_3node", run: func() result {
			return fromBench(benchFleetIngest3Node(sz, serviceName))
		}},

		{name: "sim_round", run: func() result {
			rep, err := sim.Scenario{
				Name: "bench",
				Config: sim.Config{
					Seed:      99,
					Devices:   sz.simDevices,
					Rounds:    sz.simRounds,
					Overlap:   2,
					Dim:       8,
					Transport: sim.TransportDirect,
				},
			}.Run()
			if err != nil {
				fatal(err)
			}
			if !rep.Ok() {
				fatal(fmt.Errorf("sim violations: %v", rep.Violations))
			}
			perRound := rep.Elapsed / time.Duration(sz.simRounds)
			return result{
				Iterations: sz.simRounds,
				NsPerOp:    float64(perRound.Nanoseconds()),
				Metrics: map[string]float64{
					"rounds_per_sec":  rep.RoundsPerSec(),
					"contrib_per_sec": rep.RoundsPerSec() * float64(sz.simDevices),
				},
			}
		}},
	}
}

// makeTicketedRaws fabricates n MAC'd contributions for round, sealed
// under a ticket installed into tbl — the steady-state traffic of a
// session that already ran its grant exchange.
func makeTicketedRaws(n, dim int, round uint64, serviceName string, tbl *service.TicketTable) [][]byte {
	var skey xcrypto.SessionKey
	skey[0] = 0xA7
	const ticketID = 7
	tbl.Install(ticketID, skey, 1, 1<<32, 1<<62)
	raws := make([][]byte, n)
	for i := range raws {
		tc := glimmer.TicketedContribution{
			ServiceName: serviceName,
			Round:       round,
			TicketID:    ticketID,
			Blinded:     make(fixed.Vector, dim),
			Confidence:  1,
		}
		for j := range tc.Blinded {
			tc.Blinded[j] = fixed.Ring(uint64(i)*1000003 + round*31 + uint64(j))
		}
		raws[i] = glimmer.SealTicketedContribution(tc, &skey)
	}
	return raws
}

// benchTicketedIngest is benchIngest's fast-path twin: one op is one full
// MAC'd cohort through a fresh pipeline sharing the tenant's ticket table,
// so its contrib_per_sec divides directly against the ECDSA-bound
// ingest_serial/parallel figures. Contributions are fed one Add at a time —
// the per-item hot path, deliberately not the batch plan — so the ticketed
// serial/parallel entries stay the reference the batch entries are measured
// against. With workers > 1 the cohort is striped across that many caller
// goroutines (the many-callers ingest shape).
func benchTicketedIngest(sz sizes, serviceName string, workers, shards int) testing.BenchmarkResult {
	tbl := service.NewTicketTable(service.TicketConfig{})
	raws := makeTicketedRaws(sz.cohort, sz.dim, 7, serviceName, tbl)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := service.NewPipeline(service.PipelineConfig{
				ServiceName:    serviceName,
				Dim:            sz.dim,
				Round:          7,
				Tickets:        tbl,
				Workers:        workers,
				Shards:         shards,
				ExpectedCohort: sz.cohort,
			})
			if workers == 1 {
				for _, raw := range raws {
					if err := p.Add(raw); err != nil {
						fatal(err)
					}
				}
			} else {
				var wg sync.WaitGroup
				stripe := (len(raws) + workers - 1) / workers
				for lo := 0; lo < len(raws); lo += stripe {
					hi := min(lo+stripe, len(raws))
					wg.Add(1)
					go func(part [][]byte) {
						defer wg.Done()
						for _, raw := range part {
							if err := p.Add(raw); err != nil {
								fatal(err)
							}
						}
					}(raws[lo:hi])
				}
				wg.Wait()
			}
			if err := p.Seal(); err != nil {
				fatal(err)
			}
			if p.Count() != sz.cohort {
				fatal(fmt.Errorf("count = %d, want %d", p.Count(), sz.cohort))
			}
			p.Close()
		}
		b.ReportMetric(float64(sz.cohort*b.N)/b.Elapsed().Seconds(), "contrib_per_sec")
	})
}

// benchTicketedBatchIngest measures the batch plan itself: one op is one
// AddBatchErrs frame of sz.batchItems MAC'd contributions into a warm
// pipeline, with a reused caller-owned error slice. The raw pool holds a
// full cohort of distinct contributions so dedup never fires; when the pool
// wraps, the pipeline is torn down and rebuilt off the clock, which keeps
// the timed (and alloc-counted) region exactly the steady-state submission.
func benchTicketedBatchIngest(sz sizes, serviceName string, workers, shards int) testing.BenchmarkResult {
	tbl := service.NewTicketTable(service.TicketConfig{})
	raws := makeTicketedRaws(sz.cohort, sz.dim, 7, serviceName, tbl)
	var batches [][][]byte
	for lo := 0; lo+sz.batchItems <= len(raws); lo += sz.batchItems {
		batches = append(batches, raws[lo:lo+sz.batchItems])
	}
	newPipe := func() *service.Pipeline {
		return service.NewPipeline(service.PipelineConfig{
			ServiceName:    serviceName,
			Dim:            sz.dim,
			Round:          7,
			Tickets:        tbl,
			Workers:        workers,
			Shards:         shards,
			ExpectedCohort: sz.cohort,
		})
	}
	errs := make([]error, sz.batchItems)
	return testing.Benchmark(func(b *testing.B) {
		p := newPipe()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(batches) == 0 && i > 0 {
				b.StopTimer()
				p.Close()
				p = newPipe()
				b.StartTimer()
			}
			p.AddBatchErrs(batches[i%len(batches)], errs)
			for _, err := range errs {
				if err != nil {
					fatal(err)
				}
			}
		}
		b.StopTimer()
		p.Close()
		b.ReportMetric(float64(b.N*sz.batchItems)/b.Elapsed().Seconds(), "contrib_per_sec")
	})
}

// benchStore opens a WAL store on a throwaway dir, recovered against a
// minimal one-tenant registry (the store requires a recovered registry
// before it journals). The caller owns Close; the dir cleanup fn is
// returned alongside.
func benchStore(sz sizes, serviceName string) (*durable.Store, func()) {
	dir, err := os.MkdirTemp("", "glimmers-bench-wal-")
	if err != nil {
		fatal(err)
	}
	reg := service.NewRegistry(8)
	if _, err := reg.AddTenant(service.TenantConfig{Name: serviceName, Dim: sz.dim, Workers: 1}); err != nil {
		fatal(err)
	}
	store, err := durable.Open(dir)
	if err != nil {
		fatal(err)
	}
	if _, err := store.Recover(reg); err != nil {
		fatal(err)
	}
	return store, func() { os.RemoveAll(dir) }
}

// benchWALAppend measures the journal hot path alone: one op is one
// BatchAccepted record of batchItems digests staged into the
// group-commit buffer. The background flusher (default tuning) drains on
// its own clock; records_per_write is the coalescing ratio the run
// achieved end to end.
func benchWALAppend(sz sizes, serviceName string) testing.BenchmarkResult {
	digests := make([][32]byte, sz.batchItems)
	for i := range digests {
		digests[i][0], digests[i][1], digests[i][2] = byte(i), byte(i>>8), byte(i>>16)
	}
	delta := make(fixed.Vector, sz.dim)
	for j := range delta {
		delta[j] = fixed.Ring(uint64(j) * 7)
	}
	return testing.Benchmark(func(b *testing.B) {
		store, cleanup := benchStore(sz, serviceName)
		defer cleanup()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store.BatchAccepted(serviceName, 1, digests, delta)
		}
		b.StopTimer()
		if err := store.Flush(); err != nil {
			fatal(err)
		}
		st := store.Stats()
		if err := store.Close(); err != nil {
			fatal(err)
		}
		if st.Writes > 0 {
			b.ReportMetric(float64(st.Records)/float64(st.Writes), "records_per_write")
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records_per_sec")
	})
}

// benchDurableBatchIngest is benchTicketedBatchIngest with a live WAL
// journal attached via PipelineConfig.Journal: the same warm-pipeline
// AddBatchErrs steady state, now journaling one BatchAccepted record per
// frame through the group-commit path. Divide against
// ingest_ticketed_batch for the durability tax.
func benchDurableBatchIngest(sz sizes, serviceName string, workers, shards int) testing.BenchmarkResult {
	tbl := service.NewTicketTable(service.TicketConfig{})
	raws := makeTicketedRaws(sz.cohort, sz.dim, 7, serviceName, tbl)
	var batches [][][]byte
	for lo := 0; lo+sz.batchItems <= len(raws); lo += sz.batchItems {
		batches = append(batches, raws[lo:lo+sz.batchItems])
	}
	errs := make([]error, sz.batchItems)
	return testing.Benchmark(func(b *testing.B) {
		store, cleanup := benchStore(sz, serviceName)
		defer cleanup()
		newPipe := func() *service.Pipeline {
			return service.NewPipeline(service.PipelineConfig{
				ServiceName:    serviceName,
				Dim:            sz.dim,
				Round:          7,
				Tickets:        tbl,
				Workers:        workers,
				Shards:         shards,
				ExpectedCohort: sz.cohort,
				Journal:        store,
			})
		}
		p := newPipe()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(batches) == 0 && i > 0 {
				b.StopTimer()
				p.Close()
				p = newPipe()
				b.StartTimer()
			}
			p.AddBatchErrs(batches[i%len(batches)], errs)
			for _, err := range errs {
				if err != nil {
					fatal(err)
				}
			}
		}
		b.StopTimer()
		p.Close()
		if err := store.Close(); err != nil {
			fatal(err)
		}
		b.ReportMetric(float64(b.N*sz.batchItems)/b.Elapsed().Seconds(), "contrib_per_sec")
	})
}

// makeFleetSeals splits one round's cohort across n node pipelines and
// exports each node's signed partial seal — the coordinator-side inputs
// for the fleet merge benches.
func makeFleetSeals(sz sizes, serviceName string, key *xcrypto.SigningKey, round uint64, n int) [][]byte {
	raws := makeRaws(sz.cohort, sz.dim, round, serviceName, key)
	per := len(raws) / n
	seals := make([][]byte, 0, n)
	for node := 0; node < n; node++ {
		p := service.NewPipeline(service.PipelineConfig{
			ServiceName:    serviceName,
			Verify:         key.Public(),
			Dim:            sz.dim,
			Round:          round,
			ExpectedCohort: per + 1,
		})
		for _, raw := range raws[node*per : (node+1)*per] {
			if err := p.Add(raw); err != nil {
				fatal(err)
			}
		}
		nodeKey, err := xcrypto.NewSigningKey()
		if err != nil {
			fatal(err)
		}
		seal, err := p.PartialSeal(service.NodeSeal{
			NodeID:      uint32(node + 1),
			ShardCount:  uint32(n),
			Measurement: tee.Measurement{0xFE, byte(node + 1)},
			Key:         nodeKey,
		})
		if err != nil {
			fatal(err)
		}
		p.Close()
		seals = append(seals, seal)
	}
	return seals
}

// benchFleetMerge measures the coordinator's per-round cost: each op
// starts a fresh merge and absorbs three pre-exported partial seals —
// three ECDSA verifies, the full disjointness sweep over the cohort's
// digests, and the wide-lane partial-sum folds.
func benchFleetMerge(sz sizes, serviceName string, key *xcrypto.SigningKey) testing.BenchmarkResult {
	const round, nodes = 7, 3
	seals := makeFleetSeals(sz, serviceName, key, round, nodes)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := service.NewMerge(service.MergeConfig{
				ServiceName: serviceName,
				Round:       round,
				AllowTOFU:   true,
			})
			for _, seal := range seals {
				if err := m.Absorb(seal); err != nil {
					fatal(err)
				}
			}
			if !m.Complete() {
				fatal(fmt.Errorf("fleet merge incomplete after %d partials", len(seals)))
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "merge_per_sec")
	})
}

// benchFleetIngest3Node runs one sharded round per op: three node
// pipelines on their own goroutines, each ingesting its third of the
// MAC'd cohort through the batch plan and exporting a signed partial
// seal, then a coordinator merge folding the three. The tallied
// contrib_per_sec is the aggregate across all nodes.
func benchFleetIngest3Node(sz sizes, serviceName string) testing.BenchmarkResult {
	const round, nodes = 7, 3
	tbl := service.NewTicketTable(service.TicketConfig{})
	raws := makeTicketedRaws(sz.cohort, sz.dim, round, serviceName, tbl)
	per := len(raws) / nodes
	nodeBatches := make([][][][]byte, nodes)
	nodeKeys := make([]*xcrypto.SigningKey, nodes)
	for n := 0; n < nodes; n++ {
		third := raws[n*per : (n+1)*per]
		for lo := 0; lo < len(third); lo += sz.batchItems {
			hi := min(lo+sz.batchItems, len(third))
			nodeBatches[n] = append(nodeBatches[n], third[lo:hi])
		}
		key, err := xcrypto.NewSigningKey()
		if err != nil {
			fatal(err)
		}
		nodeKeys[n] = key
	}
	errSlices := make([][]error, nodes)
	for n := range errSlices {
		errSlices[n] = make([]error, sz.batchItems)
	}
	seals := make([][]byte, nodes)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for n := 0; n < nodes; n++ {
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					p := service.NewPipeline(service.PipelineConfig{
						ServiceName:    serviceName,
						Dim:            sz.dim,
						Round:          round,
						Tickets:        tbl,
						ExpectedCohort: per + 1,
					})
					for _, batch := range nodeBatches[n] {
						errs := errSlices[n][:len(batch)]
						p.AddBatchErrs(batch, errs)
						for _, err := range errs {
							if err != nil {
								fatal(err)
							}
						}
					}
					seal, err := p.PartialSeal(service.NodeSeal{
						NodeID:      uint32(n + 1),
						ShardCount:  nodes,
						Measurement: tee.Measurement{0xFE, byte(n + 1)},
						Key:         nodeKeys[n],
					})
					if err != nil {
						fatal(err)
					}
					p.Close()
					seals[n] = seal
				}(n)
			}
			wg.Wait()
			m := service.NewMerge(service.MergeConfig{
				ServiceName: serviceName,
				Round:       round,
				AllowTOFU:   true,
			})
			for _, seal := range seals {
				if err := m.Absorb(seal); err != nil {
					fatal(err)
				}
			}
			if !m.Complete() {
				fatal(fmt.Errorf("fleet round incomplete"))
			}
		}
		b.ReportMetric(float64(b.N*per*nodes)/b.Elapsed().Seconds(), "contrib_per_sec")
	})
}

// sweepSuite builds the worker-scaling sweep (-workers-sweep "1,2,4"): the
// ECDSA-bound and ticketed ingest paths at each worker count, with
// GOMAXPROCS raised to match, for the multi-core trajectory artifact. On a
// 1-core runner the curve is flat by construction — the artifact records
// the machine (num_cpu) so readers can tell a flat curve from a scaling
// one.
func sweepSuite(sz sizes, spec string) ([]benchEntry, error) {
	const serviceName = "bench.example"
	key, err := xcrypto.NewSigningKey()
	if err != nil {
		return nil, err
	}
	var entries []benchEntry
	for _, field := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(field))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("worker count %q", field)
		}
		entries = append(entries,
			benchEntry{name: fmt.Sprintf("ingest_parallel_w%d", n), run: func() result {
				prev := runtime.GOMAXPROCS(max(n, runtime.NumCPU()))
				defer runtime.GOMAXPROCS(prev)
				return fromBench(benchIngest(sz, serviceName, key, n, 0))
			}},
			benchEntry{name: fmt.Sprintf("ingest_ticketed_parallel_w%d", n), run: func() result {
				prev := runtime.GOMAXPROCS(max(n, runtime.NumCPU()))
				defer runtime.GOMAXPROCS(prev)
				return fromBench(benchTicketedIngest(sz, serviceName, n, 0))
			}},
			benchEntry{name: fmt.Sprintf("ingest_ticketed_batch_w%d", n), run: func() result {
				prev := runtime.GOMAXPROCS(max(n, runtime.NumCPU()))
				defer runtime.GOMAXPROCS(prev)
				return fromBench(benchTicketedBatchIngest(sz, serviceName, n, 0))
			}},
		)
	}
	return entries, nil
}

// benchIngest mirrors BenchmarkPipelineIngest: one op is one full cohort
// through a fresh pipeline (construction included, as since PR 1), so the
// serial and parallel figures in one artifact are directly comparable.
func benchIngest(sz sizes, serviceName string, key *xcrypto.SigningKey, workers, shards int) testing.BenchmarkResult {
	raws := makeRaws(sz.cohort, sz.dim, 7, serviceName, key)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := service.NewPipeline(service.PipelineConfig{
				ServiceName:    serviceName,
				Verify:         key.Public(),
				Dim:            sz.dim,
				Round:          7,
				Workers:        workers,
				Shards:         shards,
				ExpectedCohort: sz.cohort,
			})
			for _, err := range p.AddBatch(raws) {
				if err != nil {
					fatal(err)
				}
			}
			if err := p.Seal(); err != nil {
				fatal(err)
			}
			if p.Count() != sz.cohort {
				fatal(fmt.Errorf("count = %d, want %d", p.Count(), sz.cohort))
			}
			p.Close()
		}
		b.ReportMetric(float64(sz.cohort*b.N)/b.Elapsed().Seconds(), "contrib_per_sec")
	})
}

func batchesByRound(sz sizes, serviceName string, key *xcrypto.SigningKey) [][][]byte {
	batches := make([][][]byte, sz.batchRounds)
	for r := range batches {
		batches[r] = makeRaws(sz.batchItems, sz.dim, uint64(r)+1, serviceName, key)
	}
	return batches
}

// pipeListener adapts net.Pipe to net.Listener so the gaas server can host
// the in-memory transport.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.closed:
	default:
		close(l.closed)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

func (l *pipeListener) dial() (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		return nil, net.ErrClosed
	}
}

// benchSubmitTransport measures Client.SubmitBatch through the full gaas
// stack — attested handshake once, then batches through the frame protocol
// — over an in-memory pipe or loopback TCP.
func benchSubmitTransport(sz sizes, serviceName string, key *xcrypto.SigningKey, tcp bool) testing.BenchmarkResult {
	tb, err := newBenchWorld(serviceName, sz.dim)
	if err != nil {
		fatal(err)
	}
	mgr := service.NewRoundManager(service.PipelineConfig{
		ServiceName:    serviceName,
		Verify:         key.Public(),
		Dim:            sz.dim,
		ExpectedCohort: sz.batchItems,
	})
	tb.server.Mux().HandleIngest(mgr)

	verifier := &tee.QuoteVerifier{Root: tb.as.Root()}
	verifier.Allow(tb.server.Measurement())

	var client *gaas.Client
	var cleanup func()
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatal(err)
		}
		go func() { _ = tb.server.Serve(ln) }()
		if client, err = gaas.Dial(ln.Addr().String(), verifier, serviceName); err != nil {
			fatal(err)
		}
		cleanup = func() { client.Close(); ln.Close() }
	} else {
		ln := newPipeListener()
		go func() { _ = tb.server.Serve(ln) }()
		conn, err := ln.dial()
		if err != nil {
			fatal(err)
		}
		if client, err = gaas.DialConn(conn, verifier, serviceName); err != nil {
			fatal(err)
		}
		cleanup = func() { client.Close(); ln.Close() }
	}
	defer cleanup()

	batches := batchesByRound(sz, serviceName, key)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(batches) == 0 {
				b.StopTimer()
				for r := range batches {
					mgr.Forget(uint64(r) + 1)
				}
				b.StartTimer()
			}
			accepted, rejected, err := client.SubmitBatch(batches[i%len(batches)])
			if err != nil {
				fatal(err)
			}
			if accepted != sz.batchItems || rejected != 0 {
				fatal(fmt.Errorf("submit = (%d, %d), want (%d, 0)", accepted, rejected, sz.batchItems))
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N*sz.batchItems)/b.Elapsed().Seconds(), "contrib_per_sec")
	})
}

// benchEdgeTLSIngest measures the hardened public edge end to end: a
// governed TLS server (connection caps and deadlines on, exactly the
// glimmerd -tls-self-signed assembly) sustaining batch ingest from
// edgeConns concurrent connections. Every connection dials, completes its
// TLS handshake, and parks before the clock starts; the timed region is
// pure steady-state submission. Signature verification is off (nil
// Verify) so the figure isolates the transport edge, comparable against
// submit_batch_tcp's single-connection plaintext figure.
func benchEdgeTLSIngest(sz sizes, serviceName string) result {
	const dim = 64
	conns, perConn, items := sz.edgeConns, sz.edgeBatches, sz.edgeItems
	total := conns * perConn * items
	raws := makeRaws(total, dim, 1, serviceName, nil)
	mgr := service.NewRoundManager(service.PipelineConfig{
		ServiceName:    serviceName,
		Dim:            dim,
		ExpectedCohort: total,
	})
	tlsConf, err := gaas.SelfSignedServerTLS("127.0.0.1")
	if err != nil {
		fatal(err)
	}
	server := gaas.New(gaas.ServerConfig{
		Ingest:       mgr,
		TLS:          tlsConf,
		ReadTimeout:  time.Minute,
		WriteTimeout: time.Minute,
		IdleTimeout:  2 * time.Minute,
		MaxConns:     conns + 8,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer ln.Close()
	go func() { _ = server.Serve(ln) }()
	defer server.Shutdown()
	addr := ln.Addr().String()

	dialCfg := gaas.DialConfig{
		NoSession:        true,
		TLS:              gaas.InsecureClientTLS(),
		DialTimeout:      time.Minute,
		HandshakeTimeout: time.Minute,
		CallTimeout:      2 * time.Minute,
	}
	clients := make([]*gaas.Client, conns)
	defer func() {
		for _, c := range clients {
			if c != nil {
				c.Close()
			}
		}
	}()
	var dialWG sync.WaitGroup
	sem := make(chan struct{}, 64)
	dialErr := make(chan error, conns)
	for i := range clients {
		dialWG.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer dialWG.Done()
			defer func() { <-sem }()
			c, err := gaas.DialContext(context.Background(), addr, dialCfg)
			if err != nil {
				dialErr <- fmt.Errorf("edge conn %d: %w", i, err)
				return
			}
			clients[i] = c
		}(i)
	}
	dialWG.Wait()
	select {
	case err := <-dialErr:
		fatal(err)
	default:
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i, client := range clients {
		wg.Add(1)
		go func(i int, client *gaas.Client) {
			defer wg.Done()
			base := i * perConn * items
			for b := 0; b < perConn; b++ {
				lo := base + b*items
				accepted, rejected, err := client.SubmitBatch(raws[lo : lo+items])
				if err != nil {
					fatal(fmt.Errorf("edge conn %d batch %d: %v", i, b, err))
				}
				if accepted != items || rejected != 0 {
					fatal(fmt.Errorf("edge conn %d batch %d: submit = (%d, %d), want (%d, 0)",
						i, b, accepted, rejected, items))
				}
			}
		}(i, client)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if got := mgr.Round(1).Count(); got != total {
		fatal(fmt.Errorf("edge round count = %d, want %d", got, total))
	}
	batches := conns * perConn
	return result{
		Iterations: conns,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(batches),
		Metrics: map[string]float64{
			"contrib_per_sec": float64(total) / elapsed.Seconds(),
			"tls_conns":       float64(conns),
		},
	}
}

type benchWorld struct {
	as     *tee.AttestationService
	server *gaas.Server
}

// newBenchWorld assembles the attested gaas hosting stack: attestation
// service, platform, cloud service, and a Glimmer host that provisions a
// fresh enclave per connection.
func newBenchWorld(serviceName string, dim int) (*benchWorld, error) {
	as, err := tee.NewAttestationService()
	if err != nil {
		return nil, err
	}
	platform, err := tee.NewPlatform(as)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(serviceName, as.Root())
	if err != nil {
		return nil, err
	}
	if err := svc.SetPredicate(predicate.UnitRangeCheck("range", dim)); err != nil {
		return nil, err
	}
	cfg, err := svc.GlimmerConfig(dim, glimmer.ModeNone, glimmer.DefaultPolicy)
	if err != nil {
		return nil, err
	}
	mux := gaas.NewServeMux()
	mux.Mount(cfg, func(dev *glimmer.Device) error {
		payload, err := svc.BasePayload()
		if err != nil {
			return err
		}
		return svc.Provision(dev, payload)
	})
	server := gaas.New(gaas.ServerConfig{Platform: platform, Mux: mux})
	svc.Vet(server.Measurement())
	return &benchWorld{as: as, server: server}, nil
}
