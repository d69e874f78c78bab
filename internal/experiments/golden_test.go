package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// update regenerates testdata/golden from the code under test:
// `go test ./internal/experiments -run TestGoldenTables -update`. The
// goldens were recorded before the experiments moved onto
// service.NewDevice and node.Start; a refactor must reproduce them, so
// regenerating is only legitimate when an experiment's workload (seed,
// population, predicate) is deliberately changed.
var update = flag.Bool("update", false, "rewrite internal/experiments/testdata/golden from the current code")

// The cells that differ between two runs of the same tree, and so are
// replaced by "~" before comparing: every wall-clock duration, and the
// columns below. Everything else in every table is pinned.
var (
	durationCell = regexp.MustCompile(`^([0-9]+(\.[0-9]+)?(h|m|s|ms|µs|ns))+$`)
	maskedCells  = map[string]struct{ column, rowPrefix string }{
		"e13": {"rounds/s", ""}, // a rate over wall time
	}
	cellGap = regexp.MustCompile(` {2,}`)
)

// maskTable splits each line of a rendered table into its cells (the
// tabwriter pads columns with at least two spaces), masks the unstable
// ones, and rejoins them with two spaces.
func maskTable(id, table string) string {
	rule, column := maskedCells[id], -1
	lines := strings.Split(table, "\n")
	for i, line := range lines {
		cells := cellGap.Split(line, -1)
		switch {
		case rule.column == "":
		case column < 0: // still looking for the header row
			column = slices.Index(cells, rule.column)
		case column < len(cells) && strings.HasPrefix(line, rule.rowPrefix):
			cells[column] = "~"
		}
		for c, cell := range cells {
			if durationCell.MatchString(cell) {
				cells[c] = "~"
			}
		}
		lines[i] = strings.Join(cells, "  ")
	}
	return strings.Join(lines, "\n")
}

// TestGoldenTables pins every experiment's table at its default
// configuration: same seeds, same rows, whatever the experiment runs on.
func TestGoldenTables(t *testing.T) {
	for _, e := range Index {
		t.Run(e.ID, func(t *testing.T) {
			r := indexTables()[e.ID]
			if r.err != nil {
				t.Fatal(r.err)
			}
			got := maskTable(e.ID, r.table)
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update on a known-good tree): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s diverges from its golden:\n--- want\n%s--- got\n%s", e.ID, want, got)
			}
		})
	}
}
