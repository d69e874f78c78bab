package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"glimmers/internal/race"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// contractFromTables renders the program's own tables as the driver's file.
func contractFromTables(runSeconds int) contract {
	c := contract{Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{m.name, m.unit, m.better, nil})
	}
	return c
}

// TestContractMatchesTables keeps BENCHMARK.json and the program's own
// tables equal: same command, workloads, metrics, units and bounds.
// UPDATE_CONTRACT=1 rewrites the file from the tables instead.
func TestContractMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_CONTRACT") != "" {
		if err := writeJSON(path, contractFromTables(loadContract(t).RunSeconds)); err != nil {
			t.Fatal(err)
		}
	}
	got := loadContract(t)
	if want := contractFromTables(got.RunSeconds); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go (UPDATE_CONTRACT=1 go test -run TestContractMatchesTables rewrites it)\n got %+v\nwant %+v", got, want)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", got.RunSeconds)
	}
}

func smokeConfig(t *testing.T, workload string, trace bool) *runConfig {
	return &runConfig{
		workload: workload, seed: 1, scale: "smoke", trace: trace,
		traceOut: filepath.Join(t.TempDir(), "trace.jsonl"),
	}
}

var metricLine = regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)`)

// TestSmokeEveryMetricOnce runs all four workloads, both passes, at smoke
// scale and asserts that every workload × metric BENCHMARK.json names is
// printed exactly once with its unit, that nothing unnamed is printed,
// and that every output check passed.
func TestSmokeEveryMetricOnce(t *testing.T) {
	c := loadContract(t)
	for _, wl := range c.Workloads {
		units := map[string]string{}
		for _, m := range append(append([]contractMetric(nil), c.EndToEnd...), c.PerLayer...) {
			units[m.Name] = m.Unit
		}
		seen := map[string]int{}
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			if err := runChild(smokeConfig(t, wl.Name, trace), "", &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", wl.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", wl.Name, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, last.Correct, last.Attempted, last.Failed)
			}
			printed := 0
			for _, line := range lines[:len(lines)-1] {
				if strings.HasPrefix(line, "#") {
					continue
				}
				m := metricLine.FindStringSubmatch(line)
				if m == nil || m[1] != wl.Name {
					t.Errorf("%s: stray output line %q", wl.Name, line)
					continue
				}
				printed++
				seen[m[2]]++
				if want, ok := units[m[2]]; !ok {
					t.Errorf("%s prints %s, which BENCHMARK.json does not name", wl.Name, m[2])
				} else if m[4] != want {
					t.Errorf("%s %s printed in %s, want %s", wl.Name, m[2], m[4], want)
				}
				if got := last.Metrics[m[2]]; got.Unit != units[m[2]] {
					t.Errorf("%s %s: result object has unit %q", wl.Name, m[2], got.Unit)
				}
			}
			if printed != len(last.Metrics) {
				t.Errorf("%s trace=%v: %d metrics printed, %d in the result object", wl.Name, trace, printed, len(last.Metrics))
			}
		}
		for name := range units {
			if seen[name] != 1 {
				t.Errorf("%s: %s printed %d times, want once", wl.Name, name, seen[name])
			}
		}
	}
}

// TestNegativeControls: the output checks must notice a flipped byte in a
// pooled contribution, a dropped frame, and a skewed reference sum — and
// the planted replays and forgeries of edge-small must be refused, tallied
// (8, 1), and reconciled with the three Rejected() counters.
func TestNegativeControls(t *testing.T) {
	for _, fault := range []string{"flip", "drop", "skew"} {
		cfg := smokeConfig(t, "edge-small", false)
		cfg.fault = fault
		var out bytes.Buffer
		err := runChild(cfg, "", &out)
		if !errors.Is(err, errIncorrect) {
			t.Errorf("fault %s: run returned %v, want the output checks to fail\n%s", fault, err, out.String())
		}
	}

	cfg := smokeConfig(t, "edge-small", false)
	cfg.stateRoot = t.TempDir()
	shape := edgeSmallShape(true)
	w, err := buildEdge(cfg, shape)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	planted := 0
	for _, f := range w.(*edgeWorld).pool[0].frames {
		if f.wantRejected == 1 {
			planted++
			if f.wantAccepted != 8 || len(f.raws) != 9 {
				t.Errorf("planted frame expects (%d, %d) over %d items, want (8, 1) over 9", f.wantAccepted, f.wantRejected, len(f.raws))
			}
		}
	}
	if want := 2 * shape.framesPerRound() / shape.plantEvery; planted != want {
		t.Fatalf("%d planted frames per round, want %d", planted, want)
	}
	res := newResult(cfg)
	if err := endToEndPass(cfg, w, res, []float64{1}); err != nil {
		t.Fatal(err)
	}
	// Warm-up (2 cycles) and the measured pass (cycles) both planted.
	wantRefused := int64(planted * shape.poolRounds * (2 + shape.cycles))
	if res.Failed != 0 || res.Counts["rejected"] != wantRefused || res.Counts["planted_refusals"] != wantRefused {
		t.Errorf("failed=%d rejected=%d planted=%d, want 0, %d, %d",
			res.Failed, res.Counts["rejected"], res.Counts["planted_refusals"], wantRefused, wantRefused)
	}
}

// TestDeterminism: the same seed gives identical counts and sums; another
// seed changes bytes (the sums) and no count.
func TestDeterminism(t *testing.T) {
	run := func(workload string, seed uint64, trace bool) *result {
		cfg := smokeConfig(t, workload, trace)
		cfg.seed, cfg.stateRoot = seed, t.TempDir()
		res, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s seed %d: output checks failed", workload, seed)
		}
		return res
	}
	for _, tc := range []struct {
		workload string
		trace    bool
	}{{"edge-small", false}, {"edge-small", true}, {"fleet-signed", true}} {
		a, b, other := run(tc.workload, 7, tc.trace), run(tc.workload, 7, tc.trace), run(tc.workload, 8, tc.trace)
		for _, r := range []*result{b, other} {
			if !reflect.DeepEqual(a.Counts, r.Counts) {
				t.Errorf("%s trace=%v: counts differ between runs:\n%v\n%v", tc.workload, tc.trace, a.Counts, r.Counts)
			}
			// ECDSA signatures vary in length, so only ticketed frames
			// have a byte count that repeats.
			names := []string{"durable.bytes_per_contrib", "fleet.skew"}
			if tc.workload == "edge-small" {
				names = append(names, "wire.frame_bytes")
			}
			for _, name := range names {
				if a.Metrics[name] != r.Metrics[name] {
					t.Errorf("%s: %s differs between runs: %v vs %v", tc.workload, name, a.Metrics[name], r.Metrics[name])
				}
			}
		}
		if a.SumDigest != b.SumDigest {
			t.Errorf("%s: same seed, different sums: %v vs %v", tc.workload, a.SumDigest, b.SumDigest)
		}
		if a.SumDigest == other.SumDigest {
			t.Errorf("%s: another seed left the sums unchanged", tc.workload)
		}
	}
}

// TestHygiene is the PrivTru rule: the harness may learn counts, timings
// and sum digests, never contribution bytes or keys. No 16-byte window of
// any contribution or session key of the run may appear, raw or in hex,
// in the result file or the trace file.
func TestHygiene(t *testing.T) {
	var mu sync.Mutex
	windows := map[string]bool{}
	cfg := smokeConfig(t, "edge-small", true)
	cfg.onSecret = func(b []byte) {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i+16 <= len(b); i++ {
			windows[string(b[i:i+16])] = true
		}
	}
	resultFile := filepath.Join(t.TempDir(), "result.json")
	var out bytes.Buffer
	if err := runChild(cfg, resultFile, &out); err != nil {
		t.Fatal(err)
	}
	if len(windows) < 1000 {
		t.Fatalf("only %d secret windows collected; the run is not reporting its secrets", len(windows))
	}
	for _, path := range []string{resultFile, cfg.traceOut} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", path)
		}
		var unhexed [16]byte
		for i := 0; i+16 <= len(data); i++ {
			if windows[string(data[i:i+16])] {
				t.Fatalf("%s offset %d: 16 bytes of a contribution or key", path, i)
			}
			if i+32 <= len(data) {
				if _, err := hex.Decode(unhexed[:], data[i:i+32]); err == nil && windows[string(unhexed[:])] {
					t.Fatalf("%s offset %d: 16 bytes of a contribution or key, in hex", path, i)
				}
			}
		}
	}
	// The result carries exactly these top-level fields.
	var fields map[string]json.RawMessage
	data, _ := os.ReadFile(resultFile)
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"workload": true, "trace": true, "correct": true, "attempted": true, "failed": true,
		"metrics": true, "timings": true, "counts": true, "sum_digest": true, "env": true, "notes": true}
	for k := range fields {
		if !allowed[k] {
			t.Errorf("result carries an unexpected field %q", k)
		}
	}
}

// TestCompare drives -compare over synthetic reports: a steady pair is
// within, a regression is outside, a noisy side is unresolved, and a
// result measured under the race detector is refused.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, contribPerS []float64, raced bool) string {
		var reports []report
		for _, v := range contribPerS {
			res := &result{Workload: "edge-steady", Metrics: map[string]metric{}}
			res.Env.Race = raced
			for _, spec := range endToEnd {
				res.Metrics[spec.name] = metric{Value: 100, Unit: spec.unit}
			}
			res.Metrics["contrib_per_s"] = metric{Value: v, Unit: "1/s"}
			reports = append(reports, report{Results: []*result{res}})
		}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, reports); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("a.json", []float64{100, 101, 99, 100, 102}, false)
	verdict := func(b string) (string, error) {
		var out bytes.Buffer
		err := compareFiles(&out, []string{steady, b})
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, "edge-steady") && strings.Contains(line, "contrib_per_s") {
				f := strings.Fields(line)
				return f[len(f)-1], err
			}
		}
		return "", fmt.Errorf("no contrib_per_s row in:\n%s", out.String())
	}
	if v, err := verdict(write("same.json", []float64{99, 100, 101, 98, 100}, false)); v != "within" || err != nil {
		t.Errorf("steady pair judged %q (%v), want within", v, err)
	}
	if v, err := verdict(write("slow.json", []float64{60, 61, 59, 60, 62}, false)); v != "outside" || err == nil {
		t.Errorf("40%% regression judged %q (%v), want outside and an error", v, err)
	}
	if v, _ := verdict(write("noisy.json", []float64{60, 140, 100, 80, 120}, false)); v != "unresolved" {
		t.Errorf("noisy side judged %q, want unresolved", v)
	}
	if v, err := verdict(write("fast.json", []float64{150, 200, 250, 300, 350}, false)); v != "within" || err != nil {
		t.Errorf("noisy but strictly better side judged %q (%v), want within", v, err)
	}
	if err := compareFiles(&bytes.Buffer{}, []string{steady, write("raced.json", []float64{100}, true)}); err == nil {
		t.Error("-compare accepted a result measured under the race detector")
	}
}

// TestRaceStamp: a -race build stamps the result so -compare can refuse it.
func TestRaceStamp(t *testing.T) {
	if got := smokeConfig(t, "edge-small", false).env().Race; got != race.Enabled {
		t.Errorf("env.race = %v, build says %v", got, race.Enabled)
	}
}
