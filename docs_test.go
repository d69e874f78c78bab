package glimmers_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeNamesExistingTests: the documents argue the system's promises by
// naming the tests that pin them, so a name that no longer exists is a broken
// promise nobody sees. Every backticked `TestX`, `FuzzX` or `BenchmarkX` in
// the four documents below must be declared in some _test.go file of the
// module; a trailing * cites a family and needs one declared name with that
// prefix.
func TestReadmeNamesExistingTests(t *testing.T) {
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
