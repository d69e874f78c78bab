package glimmers_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeNamesExistingTests: the documents argue the system's promises by
// naming the tests that pin them, so a name that no longer exists is a broken
// promise nobody sees. Every backticked `TestX`, `FuzzX` or `BenchmarkX` in
// the four documents below must be declared in some _test.go file of the
// module; a trailing * cites a family and needs one declared name with that
// prefix. README states the promises and threats in one table, found by its
// heading, whose every row must cite a test or fuzz target in its last cell.
func TestReadmeNamesExistingTests(t *testing.T) {
	checkPromisesTable(t)

	declaration := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Z]\w*)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and what a benchmark run leaves behind
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declaration.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(name string, family bool) bool {
		if declared[name] || !family {
			return declared[name]
		}
		for d := range declared {
			if strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}

	citation := regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Z]\\w*)(\\*?)`")
	for _, doc := range []string{"README.md", "benchmark/README.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range citation.FindAllSubmatch(text, -1) {
			if !exists(string(m[1]), len(m[2]) > 0) {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, m[0])
			}
		}
	}
}

// promisesHeading introduces README's one risk → impact → mitigation → tests
// table.
const promisesHeading = "## Promises and threats"

// checkPromisesTable fails unless README holds exactly one promises table
// under promisesHeading, with the four columns, at least one row, and a
// backticked Test or Fuzz name in every row's tests cell. Whether the names
// exist is the citation check's.
func checkPromisesTable(t *testing.T) {
	text, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")
	at := -1
	for i, line := range lines {
		if strings.TrimSpace(line) != promisesHeading {
			continue
		}
		if at >= 0 {
			t.Fatalf("README has %q twice (lines %d and %d)", promisesHeading, at+1, i+1)
		}
		at = i
	}
	if at < 0 {
		t.Fatalf("README has no %q table", promisesHeading)
	}
	var table []string
	for _, line := range lines[at+1:] {
		if strings.HasPrefix(line, "#") {
			break
		}
		if strings.HasPrefix(line, "|") {
			table = append(table, line)
		} else if len(table) > 0 {
			break
		}
	}
	cells := func(row string) []string {
		parts := strings.Split(strings.Trim(strings.TrimSpace(row), "|"), "|")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	want := []string{"risk", "impact", "mitigation", "tests"}
	if len(table) < 3 || !slices.Equal(cells(table[0]), want) {
		t.Fatalf("README's %q section holds no table with columns %v and a row", promisesHeading, want)
	}
	testName := regexp.MustCompile("`(?:Test|Fuzz)[A-Z]\\w*\\*?`")
	for _, row := range table[2:] {
		c := cells(row)
		if len(c) != len(want) {
			t.Errorf("promises row has %d cells, want %d: %.60s…", len(c), len(want), row)
			continue
		}
		if !testName.MatchString(c[len(c)-1]) {
			t.Errorf("promises row %.60s… cites no test in its tests cell", c[0])
		}
	}
}
