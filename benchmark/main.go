// Command benchmark is the end-to-end benchmark of the Glimmers service
// edge: four workloads driven over loopback TLS through the same stack
// cmd/glimmerd assembles, every sealed sum checked against what the
// enclaves released, and — in a second, traced pass — one contribution's
// time budget taken apart layer by layer from outside the program.
//
// One workload, one pass (what the benchmark driver runs):
//
//	go run ./benchmark --workload edge-steady --seed 1 --seconds 10 --trace 0
//
// prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) by name with its unit, then one JSON object on the last line.
//
// Every workload, both passes, each in a child process of its own:
//
//	go run ./benchmark -out result.json
//	go run ./benchmark -compare A.json B.json
//
// See README.md in this directory for the workloads, the metrics and how
// to read the trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "inputs are a pure function of the seed")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured window; 0 runs the scale's fixed count instead")
	trace := flag.Int("trace", 0, "0: end-to-end pass, tracing off; 1: traced pass, per-layer metrics")
	flag.StringVar(&cfg.scale, "scale", "full", "full or smoke (seconds-long, for tests)")
	flag.StringVar(&cfg.stateRoot, "state-dir", "", "create the WAL state dirs under this directory, to price a real device (default: a temporary directory on tmpfs, removed at exit)")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced pass (default "+outputDir+"/trace-<workload>.jsonl)")
	flag.StringVar(&cfg.fault, "fault", "", "negative control on an edge workload: flip, drop or skew; the run must fail")
	out := flag.String("out", "", "write the full result as JSON here")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare A.json B.json")
	flag.Parse()
	cfg.trace = *trace != 0

	var err error
	switch {
	case *compare:
		err = compareFiles(os.Stdout, flag.Args())
	case cfg.workload == "":
		err = runAll(&cfg, *out)
	default:
		err = runChild(&cfg, *out, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("output checks failed")

// outputDir is where a run leaves files nobody asked for by name (the
// span file): in the working directory, ignored by git.
const outputDir = ".bench_state"

// openStateRoot decides where the WAL lives. With -state-dir it is a
// subdirectory there. Without, it is a temporary directory on tmpfs
// (/dev/shm when it can be written, else the output directory): durable
// numbers then price the WAL's CPU and syscall path, not a disk — on this
// shared virtio disk fsync latency swings severalfold from minute to
// minute, and that is the only form that repeats. The directory is
// removed when the run ends, and on SIGINT/SIGTERM.
func (c *runConfig) openStateRoot() (cleanup func(), err error) {
	parent := c.stateRoot
	if parent == "" {
		parent = "/dev/shm"
	}
	root, err := os.MkdirTemp(parent, "glimmers-bench-")
	if err != nil && c.stateRoot == "" {
		if err = os.MkdirAll(outputDir, 0o755); err == nil {
			root, err = os.MkdirTemp(outputDir, "state-")
		}
	}
	if err != nil {
		return nil, err
	}
	c.stateRoot = root
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sigs; ok {
			os.RemoveAll(root)
			os.Exit(1)
		}
	}()
	return func() {
		signal.Stop(sigs)
		close(sigs)
		os.RemoveAll(root)
	}, nil
}

// runChild is one workload, one pass, in this process.
func runChild(cfg *runConfig, out string, stdout io.Writer) error {
	cleanup, err := cfg.openStateRoot()
	if err != nil {
		return err
	}
	defer cleanup()
	res, err := runOne(cfg)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	// The driver's line: exactly these four keys, last on standard output.
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// world is an assembled workload: stack up, devices provisioned, path warm.
type world interface {
	// pass runs the closed loop until lim; a non-nil hook makes it the
	// traced, single-generator pass.
	pass(lim limit, hook *layerHook) (*window, error)
	// probeSessions has n new users join a warm, idle service one after
	// another and returns fresh-device-to-accepted-contribution timings.
	// Nil on device-session, whose window is made of exactly that.
	probeSessions(n int) ([]float64, error)
	fixedRounds() int
	measured() []*node
	glimmerTimes(win *window) *setupTimes
	newHook(dir string) (*layerHook, error)
	// tallies are Σ Pipeline.Rejected read before each Forget, and the
	// refusals planted, over every pass since set-up began.
	tallies() (pipelineRejected, planted int64)
	close()
}

func build(cfg *runConfig) (world, error) {
	switch cfg.workload {
	case "edge-steady":
		return buildEdge(cfg, edgeSteadyShape(cfg.smoke()))
	case "edge-small":
		return buildEdge(cfg, edgeSmallShape(cfg.smoke()))
	case "device-session":
		return buildSession(cfg, deviceSessionShape(cfg.smoke()))
	case "fleet-signed":
		return buildFleet(cfg, fleetSignedShape(cfg.smoke()))
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runOne sets the workload up (several times at full scale, keeping the
// last), runs one pass, and reduces it to metrics.
func runOne(cfg *runConfig) (*result, error) {
	if cfg.fault != "" && !strings.HasPrefix(cfg.workload, "edge-") {
		return nil, fmt.Errorf("-fault needs a pooled workload (edge-steady or edge-small)")
	}
	res := newResult(cfg)
	var w world
	var setups []float64
	for i := 0; i < cfg.setupRepeats(); i++ {
		if w != nil {
			// Free the discarded world before building the next, so the
			// peak resident set is one world's, whatever the GC's timing.
			w.close()
			w = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if w, err = build(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	var err error
	if cfg.trace {
		err = tracedPass(cfg, w, res)
	} else {
		err = endToEndPass(cfg, w, res, setups)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// book folds a window's checks into the result: every frame and every
// round is an attempted operation.
func (r *result) book(win *window) {
	r.Attempted += win.sum(func(rec *recorder) int64 { return rec.frames + rec.rounds })
	r.Failed += win.sum(func(rec *recorder) int64 { return rec.failed })
	r.Counts["frames"] += win.sum(func(rec *recorder) int64 { return rec.frames })
	r.Counts["rounds"] += win.sum(func(rec *recorder) int64 { return rec.rounds })
	r.Counts["contributions"] += win.sum(func(rec *recorder) int64 { return rec.accepted })
	for _, rec := range win.recs {
		r.sums ^= rec.sums
	}
	r.SumDigest = fmt.Sprintf("%016x", r.sums)
}

func endToEndPass(cfg *runConfig, w world, res *result, setups []float64) error {
	win, err := w.pass(cfg.limit(w.fixedRounds()), nil)
	if err != nil {
		return err
	}
	res.book(win)
	accepted := float64(win.sum(func(rec *recorder) int64 { return rec.accepted }))
	if accepted == 0 {
		return fmt.Errorf("no contribution was accepted")
	}
	res.set("setup_s", median(setups))
	rate, segs := win.rate()
	res.Timings["contrib_per_s"] = segs
	res.set("contrib_per_s", rate)
	res.timing("frame_p50_ms", win.merged(func(rec *recorder) []int64 { return rec.frameNS }), 1e6)
	res.set("cpu_us_per_contrib", win.cpuPerContrib()/1e3)
	res.set("peak_rss_mb", peakRSSMB())
	res.checkCounters(w)
	return nil
}

// checkCounters books the reconciliations that can only be made once
// traffic has stopped: Registry.Rejected + RoundManager.Rejected + Σ
// Pipeline.Rejected must equal the refusals planted, and the edge must
// have shed no batch and refused no connection.
func (r *result) checkCounters(w world) {
	rejected, planted := w.tallies()
	var shed, refused int64
	for _, n := range w.measured() {
		rejected += int64(n.registry.Rejected() + n.manager.Rejected())
		st := n.server.Stats()
		shed, refused = shed+st.ShedBatches, refused+st.RefusedMaxConns+st.RefusedPerIP
	}
	r.Counts["rejected"], r.Counts["planted_refusals"] = rejected, planted
	r.Counts["shed_batches"], r.Counts["refused_conns"] = shed, refused
	r.Attempted += 2
	if rejected != planted {
		r.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: CHECK FAILED: Rejected() counters sum to %d, %d refusals were planted\n", rejected, planted)
	}
	if shed != 0 || refused != 0 {
		r.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: CHECK FAILED: edge shed %d batches and refused %d connections\n", shed, refused)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of the pass by name with its unit, in
// table order, with the median's company where there is one.
func printResult(out io.Writer, res *result) {
	pass := "end-to-end pass, tracing off"
	specs := endToEnd
	if res.Trace {
		pass, specs = "traced pass, one generator", perLayer
	}
	e := res.Env
	fmt.Fprintf(out, "# %s: %s; seed %d, scale %s, %d generator(s), closed loop, one request in flight each\n",
		res.Workload, pass, e.Seed, e.Scale, e.Generators)
	fmt.Fprintf(out, "# %s; state on %s; %s, nproc %d, GOMAXPROCS %d, race %v, commit %s\n",
		e.Transport, e.StateFS, e.Go, e.NProc, e.GOMAXPROCS, e.Race, e.Commit)
	for _, note := range res.Notes {
		fmt.Fprintf(out, "# %s\n", note)
	}
	for _, spec := range specs {
		m, ok := res.Metrics[spec.name]
		if !ok {
			continue
		}
		detail := ""
		if s, ok := res.Timings[spec.name]; ok {
			detail = "  (" + s.String() + ")"
		}
		fmt.Fprintf(out, "%-14s %-36s %14.6g %-6s%s\n", res.Workload, spec.name, m.Value, m.Unit, detail)
	}
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "# count %s = %d\n", k, res.Counts[k])
	}
	fmt.Fprintf(out, "# checks: %d attempted, %d failed; digest of every verified sum %s\n",
		res.Attempted, res.Failed, res.SumDigest)
}

// report is the -out file of a run over every workload.
type report struct {
	Claim   *string   `json:"claim"` // this benchmark claims no gain
	Env     envRecord `json:"env"`
	Results []*result `json:"results"`
}

// runAll runs every workload's end-to-end and traced pass, each in a
// child process of this same binary: a fresh heap per workload, and
// peak_rss_mb and CPU from the child's own rusage.
func runAll(cfg *runConfig, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outputDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outputDir, "all-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	rep := report{Env: cfg.env()}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			part := filepath.Join(tmp, wl.name+"-"+trace+".json")
			args := []string{
				"-workload", wl.name, "-trace", trace, "-out", part,
				"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
				"-scale", cfg.scale,
			}
			if cfg.stateRoot != "" {
				args = append(args, "-state-dir", cfg.stateRoot)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %s): %w", wl.name, trace, err)
			}
			data, err := os.ReadFile(part)
			if err != nil {
				return err
			}
			res := new(result)
			if err := json.Unmarshal(data, res); err != nil {
				return err
			}
			rep.Results = append(rep.Results, res)
		}
	}
	if out != "" {
		return writeJSON(out, rep)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
