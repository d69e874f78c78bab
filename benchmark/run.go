package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"glimmers/internal/fixed"
	"glimmers/internal/race"
)

// generators is G: the closed loop's client count. Frames come from relays
// and devices that wait for their tallies, so each generator keeps one
// request in flight; client and server share the process and its cores.
func generators() int { return min(2, runtime.NumCPU()) }

// runConfig is one invocation: one workload, one pass.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64 // measured window; 0 = the scale's fixed count
	scale     string  // "full" or "smoke"
	trace     bool
	stateRoot string // per-run state dirs are created under it
	traceOut  string
	fault     string // negative control: "", "flip", "drop" or "skew"

	// onSecret, when set, is shown every contribution, lane vector and
	// session key the run uses, so the hygiene test can prove none of them
	// reaches an output file. Nil outside tests.
	onSecret func([]byte)
}

func (c *runConfig) smoke() bool { return c.scale == "smoke" }

// setupRepeats: the full-scale end-to-end pass sets up three times and
// reports the median, so one cold start does not decide setup_s.
func (c *runConfig) setupRepeats() int {
	if c.smoke() || c.trace {
		return 1
	}
	return 3
}

func (c *runConfig) secret(b []byte) {
	if c.onSecret != nil {
		c.onSecret(b)
	}
}

// rng derives an independent deterministic stream: inputs are a pure
// function of (seed, stream), whatever the goroutine interleaving.
func (c *runConfig) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(c.seed, stream))
}

// unitVector draws a contribution in [0, 1]^dim, the range the tenant's
// predicate admits.
func unitVector(r *rand.Rand, dim int) fixed.Vector {
	v := make(fixed.Vector, dim)
	for i := range v {
		v[i] = fixed.Ring(r.Uint64N(fixed.Scale + 1))
	}
	return v
}

// limit ends a pass: after a fixed number of rounds, or at a deadline.
type limit struct {
	rounds   int
	deadline time.Time
}

func (c *runConfig) limit(fixedRounds int) limit {
	if c.seconds > 0 {
		return limit{deadline: time.Now().Add(time.Duration(c.seconds * float64(time.Second)))}
	}
	return limit{rounds: fixedRounds}
}

// recorder collects one generator's observations. Buffers are allocated
// and touched before the window opens.
type recorder struct {
	frameNS  []int64 // submit round trips
	ackNS    []int64 // when each came back, ns since the window opened
	resultNS []int64 // last ack → compared sum, one per round
	unitNS   []int64 // device-session: one whole session
	accepted int64
	frames   int64
	rounds   int64
	failed   int64
	rejected int64 // Pipeline.Rejected read before each Forget
	planted  int64

	cpu   *cpuSampler // shared by the window's generators
	leads bool        // this generator takes the CPU samples

	times      setupTimes // glimmer-layer calls made inside the loop
	sums       uint64     // XOR of the Digest of every verified sum
	complaints int
}

// fail books one failed output check and says why (the first few times).
func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if r.complaints++; r.complaints <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: CHECK FAILED: %s\n", fmt.Sprintf(format, args...))
	}
}

// verified folds a verified sum's digest into the recorder's, in a way
// that does not depend on the order rounds finished in.
func (r *recorder) verified(sum fixed.Vector) {
	d, _ := strconv.ParseUint(sum.Digest(), 16, 64)
	r.sums ^= d
}

// over reports whether generator g of G, having finished done rounds, is
// through with the pass. A count-based pass gives every generator a fixed
// share, so what is run does not depend on who was faster.
func (l limit) over(done, g, G int) bool {
	if l.rounds > 0 {
		share := l.rounds / G
		if g < l.rounds%G {
			share++
		}
		return done >= share
	}
	return !time.Now().Before(l.deadline)
}

func newRecorder(frameCap, roundCap, unitCap int) *recorder {
	return &recorder{
		frameNS:  touched(frameCap),
		ackNS:    touched(frameCap),
		resultNS: touched(roundCap),
		unitNS:   touched(unitCap),
	}
}

// frameCap sizes a generator's frame buffers: exactly, for a count-based
// pass; for a timed one, for perSecond frames a second — several times
// what a generator reaches on two cores, yet small enough that the
// harness's buffers do not drown the program in peak_rss_mb. A machine
// fast enough to fill them is measured on the frames recorded until then.
func (l limit) frameCap(framesPerRound, generators, perSecond int) int {
	if l.rounds > 0 {
		return (l.rounds/generators + 1) * framesPerRound
	}
	return int(time.Until(l.deadline).Seconds()*float64(perSecond)) + framesPerRound
}

func (l limit) roundCap(generators int) int {
	if l.rounds > 0 {
		return l.rounds/generators + 1
	}
	return 1 << 16
}

// frame records one acked submit.
func (r *recorder) frame(sent, acked, windowStart time.Time) {
	push(&r.frameNS, int64(acked.Sub(sent)))
	push(&r.ackNS, int64(acked.Sub(windowStart)))
	r.frames++
	all := r.cpu.frames.Add(1)
	if r.leads && r.frames%r.cpu.every == 0 {
		push(&r.cpu.cpuNS, int64(processCPU()))
		push(&r.cpu.framesAt, all)
	}
}

// cpuSampler prices CPU the way the rate prices time: per short segment,
// so that the figure is a median over segments and a descheduled vCPU —
// which the guest books as CPU time of whoever was running — spoils the
// segments it falls in and no others.
type cpuSampler struct {
	frames   atomic.Int64 // acked by all generators
	every    int64        // the leading generator samples every this many of its frames
	cpuNS    []int64      // process user+sys at each sample
	framesAt []int64      // frames acked by all generators at each sample
}

// perContrib is the median over segments of CPU nanoseconds per accepted
// contribution; the whole window's figure when it has under two samples.
func (w *window) cpuPerContrib() float64 {
	c := w.cpu
	var per []float64
	for i := 1; i < len(c.cpuNS); i++ {
		if frames := c.framesAt[i] - c.framesAt[i-1]; frames > 0 {
			per = append(per, float64(c.cpuNS[i]-c.cpuNS[i-1])/float64(frames*int64(w.perFrameContrib)))
		}
	}
	if len(per) == 0 {
		return float64(w.cpuTotal) / float64(w.sum(func(r *recorder) int64 { return r.accepted }))
	}
	return median(per)
}

// touched allocates a buffer and writes every page, so first use inside
// the measured window does not fault.
func touched(n int) []int64 {
	b := make([]int64, n)
	for i := range b {
		b[i] = 1
	}
	return b[:0]
}

// push appends while capacity lasts; a full buffer stops sampling rather
// than allocating inside the window.
func push(buf *[]int64, v int64) {
	if len(*buf) < cap(*buf) {
		*buf = append(*buf, v)
	}
}

// window is the merged measurement of one pass.
type window struct {
	start           time.Time
	recs            []*recorder
	cpu             *cpuSampler
	cpuTotal        time.Duration
	mallocs         uint64
	perFrameContrib int // accepted contributions every frame carries
	segmentFrames   int // frames per segment of the rate
}

func (w *window) sum(f func(*recorder) int64) int64 {
	var n int64
	for _, r := range w.recs {
		n += f(r)
	}
	return n
}

func (w *window) merged(f func(*recorder) []int64) []float64 {
	var out []float64
	for _, r := range w.recs {
		for _, v := range f(r) {
			out = append(out, float64(v))
		}
	}
	return out
}

// rate is accepted contributions per second as a median of segment rates.
// Each generator's acked frames are cut into equal-count segments of
// segmentFrames — a whole number of rounds where rounds are short, so
// every segment holds the same share of sealing and checking — segment i
// of every generator is summed into the loop's rate over that stretch, and
// the figure is the median of those sums. Segments last tens of
// milliseconds: on a shared host whose vCPUs are descheduled for a tenth
// of a second at a time, a stall spoils the segments it falls in and
// leaves the median where the undisturbed ones are.
func (w *window) rate() (float64, summary) {
	segments := -1
	for _, r := range w.recs {
		if n := len(r.ackNS) / w.segmentFrames; segments < 0 || n < segments {
			segments = n
		}
	}
	if segments < 1 {
		return 0, summary{}
	}
	total := make([]float64, segments)
	for _, r := range w.recs {
		from := int64(0)
		for i := range total {
			to := r.ackNS[(i+1)*w.segmentFrames-1]
			total[i] += float64(w.segmentFrames*w.perFrameContrib) / (float64(to-from) / 1e9)
			from = to
		}
	}
	s := summarize(total, 1)
	return s.Median, s
}

// measure runs one generator per recorder concurrently and accounts the
// process CPU and allocations the window consumed.
func measure(recs []*recorder, perFrameContrib, segmentFrames int,
	gen func(g int, rec *recorder, start time.Time) error) (*window, error) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w := &window{recs: recs, perFrameContrib: perFrameContrib, segmentFrames: segmentFrames}
	// The first generator reads the process's CPU clock at the end of each
	// of its segments, against the frames all generators have acked.
	w.cpu = &cpuSampler{every: int64(segmentFrames), cpuNS: touched(cap(recs[0].ackNS)/segmentFrames + 1)}
	w.cpu.framesAt = touched(cap(w.cpu.cpuNS))
	for _, r := range recs {
		r.cpu = w.cpu
	}
	recs[0].leads = true
	cpu0 := processCPU()
	w.start = time.Now()
	errs := make([]error, len(recs))
	var wg sync.WaitGroup
	for g := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = gen(g, recs[g], w.start)
		}()
	}
	wg.Wait()
	w.cpuTotal = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return w, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envRecord is everything a result says about where it ran.
type envRecord struct {
	Go         string `json:"go"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Generators int    `json:"generators"`
	StateFS    string `json:"state_fs"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
	Commit     string `json:"commit"`
	Race       bool   `json:"race"`
	Transport  string `json:"transport"`
}

func (c *runConfig) env() envRecord {
	return envRecord{
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Generators: generators(),
		StateFS:    stateFS(c.stateRoot),
		Seed:       c.seed,
		Scale:      c.scale,
		Commit:     commit(),
		Race:       race.Enabled,
		Transport:  "loopback TLS 1.3; client and server share the process and its cores",
	}
}

// result is one pass of one workload. It carries only counts, timings,
// sum digests and the environment — never contribution bytes or keys.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	Timings   map[string]summary `json:"timings"`
	Counts    map[string]int64   `json:"counts"`
	SumDigest string             `json:"sum_digest"` // XOR of Sum().Digest() over every verified round
	Env       envRecord          `json:"env"`
	Notes     []string           `json:"notes,omitempty"`

	sums uint64
}

func newResult(c *runConfig) *result {
	return &result{
		Workload: c.workload, Trace: c.trace,
		Metrics: map[string]metric{}, Timings: map[string]summary{}, Counts: map[string]int64{},
		Env: c.env(),
	}
}

// set records a metric under the unit its definition fixes.
func (r *result) set(name string, value float64) {
	def, ok := metricDef(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	r.Metrics[name] = metric{Value: value, Unit: def.unit}
}

// timing records a metric as the median of its samples (ns, divided by
// scale) and keeps the tail and n for the printed line.
func (r *result) timing(name string, ns []float64, scale float64) float64 {
	s := summarize(ns, scale)
	r.Timings[name] = s
	r.set(name, s.Median)
	return s.Median
}

// sameVector is the byte-for-byte sum check: ring lanes compared exactly.
func sameVector(a, b fixed.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sealAndCheck is the end of a single-node round: seal (a WAL barrier),
// read the sum, compare it lane for lane with the reference, then close
// and forget the round. The result timing runs from the last acked frame
// to the compared sum.
func sealAndCheck(n *node, round uint64, ref fixed.Vector, want int, lastAck time.Time, rec *recorder, hook *layerHook) error {
	if err := n.manager.Seal(round); err != nil {
		return err
	}
	p, _ := n.manager.Lookup(round)
	sum, count := p.Sum(), p.Count()
	ok := sameVector(sum, ref) && count == want
	push(&rec.resultNS, int64(time.Since(lastAck)))
	rec.rounds++
	if ok {
		rec.accepted += int64(count)
		rec.verified(sum)
	} else {
		rec.fail("round %d: sealed sum %s over %d, want %s over %d", round, sum.Digest(), count, ref.Digest(), want)
	}
	rec.rejected += int64(p.Rejected())
	if err := hook.sealed(n, round, sum); err != nil {
		return err
	}
	n.finish(round)
	return nil
}
