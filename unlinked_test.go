package glimmers_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryFunctionIsLinked: a Glimmer is trusted because its code is vetted,
// so every function under internal/ and in the root package is code a vetter
// must read, and one that no binary links is reading for nothing. The test
// builds every main package of the module, and one more root that runs the
// simulator's scenarios (simRoot, added through an overlay; no main package
// is committed for it), with inlining off so an inlined callee keeps its
// symbol. A function declared in a non-test file whose symbol is in none of
// the binaries fails the test unless a line of testdata/unlinked.txt allows
// it; a line that allows no unlinked function fails it too, so the list
// cannot go stale. The subtests are the guard's negative controls.
//
// The scan under-reports: the linker keeps a method of a type converted to
// an interface whenever some interface call could reach it, so a method
// nothing calls can still be linked.
func TestEveryFunctionIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every main package of the module")
	}
	allow := readAllowlist(t, allowlistPath)
	base := scanLinks(t, nil)
	problems := base.problems(allow)
	for _, problem := range problems {
		t.Error(problem)
	}
	t.Logf("%d of %d lines in function declarations are linked into no binary", base.unlinkedLines(), base.lines)

	// Each control must add exactly one problem, the one it plants.
	addsOne := func(t *testing.T, got []string, want string) {
		t.Helper()
		if len(got) != len(problems)+1 || !slices.ContainsFunc(got, func(p string) bool { return strings.HasPrefix(p, want) }) {
			t.Errorf("the guard reports %q, want the %d problems without the control and one starting %q", got, len(problems), want)
		}
	}
	t.Run("reports a function no binary links", func(t *testing.T) {
		added := scanLinks(t, map[string]string{
			"internal/fixed/zz_unlinked.go": "package fixed\n\nfunc neverCalled() int { return 1 }\n",
		})
		addsOne(t, added.problems(allow), "fixed.neverCalled (internal/fixed/zz_unlinked.go:3, 1 lines) is linked into no binary")
	})
	t.Run("reports an allowlist line that matches a linked function", func(t *testing.T) {
		stale := append(slices.Clip(allow), allowEntry{line: 999, pattern: "fixed.NewVector", reason: "linked"})
		addsOne(t, base.problems(stale), allowlistPath+":999: fixed.NewVector allows no unlinked function")
	})
}

const (
	modulePath    = "glimmers"
	allowlistPath = "testdata/unlinked.txt"
	// simRoot is a main package that only the overlay creates: the sim's
	// scenarios run only under tests by design, so they count as roots.
	simRoot     = "internal/sim/linkroot/main.go"
	simRootMain = `package main

import "glimmers/internal/sim"

func main() {
	sim.Scenario{}.Run()
	sim.MultiScenario{}.Run()
	sim.RunFleet("", sim.FleetConfig{})
	sim.RunEdgeAdversary(sim.EdgeConfig{})
	sim.RunCrashRecovery("", sim.CrashConfig{})
}
`
)

// funcDecl is one function declared in a non-test file, named the way
// testdata/unlinked.txt names it: the import path less "glimmers/internal/"
// (the root package is "glimmers"), then F, (*T).M or T.M.
type funcDecl struct {
	name  string
	pos   string
	lines int
}

type linkScan struct {
	unlinked []funcDecl
	lines    int // inside every function declaration scanned
}

func (s linkScan) unlinkedLines() int {
	n := 0
	for _, d := range s.unlinked {
		n += d.lines
	}
	return n
}

type allowEntry struct {
	line    int
	pattern string // a name, or a prefix ending in *
	reason  string
}

func (e allowEntry) matches(name string) bool {
	if prefix, ok := strings.CutSuffix(e.pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return name == e.pattern
}

// problems lists every unlinked function no entry allows, then every entry
// that allows no unlinked function.
func (s linkScan) problems(allow []allowEntry) []string {
	var out []string
	used := make([]bool, len(allow))
	for _, d := range s.unlinked {
		allowed := false
		for i, e := range allow {
			if e.matches(d.name) {
				allowed, used[i] = true, true
			}
		}
		if !allowed {
			out = append(out, fmt.Sprintf("%s (%s, %d lines) is linked into no binary: delete it, move it into a _test.go file, or allow it in %s with a reason",
				d.name, d.pos, d.lines, allowlistPath))
		}
	}
	for i, e := range allow {
		if !used[i] {
			out = append(out, fmt.Sprintf("%s:%d: %s allows no unlinked function; delete the line", allowlistPath, e.line, e.pattern))
		}
	}
	return out
}

// readAllowlist parses one "<name or prefix*> <reason>" per line; blank
// lines and lines starting with # are skipped.
func readAllowlist(t *testing.T, path string) []allowEntry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var entries []allowEntry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pattern, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			t.Fatalf("%s:%d: %s has no reason", path, n, pattern)
		}
		entries = append(entries, allowEntry{line: n, pattern: pattern, reason: reason})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries
}

// scanLinks builds every root with extra (module-relative path → source)
// laid over the tree, and returns the declared functions under internal/
// and in the root package that no root links.
func scanLinks(t *testing.T, extra map[string]string) linkScan {
	t.Helper()
	tmp := t.TempDir()
	files := map[string]string{simRoot: simRootMain}
	for path, src := range extra {
		files[path] = src
	}
	replace, sources := map[string]string{}, map[string]any{}
	for path, src := range files {
		abs, err := filepath.Abs(path)
		if err != nil {
			t.Fatal(err)
		}
		content := filepath.Join(tmp, strings.ReplaceAll(path, "/", "_"))
		if err := os.WriteFile(content, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		replace[abs], sources[abs] = content, src
	}
	overlay, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		t.Fatal(err)
	}
	overlayFile := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		t.Fatal(err)
	}

	roots := strings.Fields(goCmd(t, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./..."))
	roots = append(roots, "./"+filepath.Dir(simRoot))
	bin := filepath.Join(tmp, "bin")
	if err := os.Mkdir(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	goCmd(t, append([]string{"build", "-overlay", overlayFile, "-gcflags=all=-l", "-o", bin + "/"}, roots...)...)
	built, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(built) != len(roots) {
		t.Fatalf("built %d binaries for %d roots", len(built), len(roots))
	}
	linked := map[string]bool{}
	text := regexp.MustCompile(`(?m)^\s*[0-9a-f]*\s+[Tt]\s+(` + modulePath + `[./].*)$`)
	for _, b := range built {
		for _, m := range text.FindAllStringSubmatch(goCmd(t, "tool", "nm", filepath.Join(bin, b.Name())), -1) {
			linked[shortName(stripTypeArgs(m[1]))] = true
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var s linkScan
	fset := token.NewFileSet()
	dec := json.NewDecoder(strings.NewReader(goCmd(t, "list", "-overlay", overlayFile, "-json=Name,ImportPath,Dir,GoFiles", ".", "./internal/...")))
	for dec.More() {
		var pkg struct {
			Name, ImportPath, Dir string
			GoFiles               []string
		}
		if err := dec.Decode(&pkg); err != nil {
			t.Fatal(err)
		}
		if pkg.Name == "main" {
			continue // the sim root
		}
		for _, name := range pkg.GoFiles {
			path := filepath.Join(pkg.Dir, name)
			f, err := parser.ParseFile(fset, path, sources[path], parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" {
					continue
				}
				start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				rel, err := filepath.Rel(wd, path)
				if err != nil {
					t.Fatal(err)
				}
				prefix := shortName(pkg.ImportPath) + "."
				name, wrapper := funcNames(fn)
				d := funcDecl{
					name:  prefix + name,
					pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), start.Line),
					lines: end.Line - start.Line + 1,
				}
				s.lines += d.lines
				if !linked[d.name] && (wrapper == "" || !linked[prefix+wrapper]) {
					s.unlinked = append(s.unlinked, d)
				}
			}
		}
	}
	if s.lines == 0 {
		t.Fatal("scanned no function declarations")
	}
	return s
}

// funcNames is the symbol fn links as (F, (*T).M or T.M, type parameters
// dropped: stripTypeArgs folds the linker's F[shape] onto F) and, for a
// value-receiver method, the (*T).M wrapper the linker may keep in its
// place.
func funcNames(fn *ast.FuncDecl) (name, wrapper string) {
	if fn.Recv == nil {
		return fn.Name.Name, ""
	}
	typ, star := fn.Recv.List[0].Type, false
	if p, ok := typ.(*ast.StarExpr); ok {
		typ, star = p.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	pointer := "(*" + recv + ")." + fn.Name.Name
	if star {
		return pointer, ""
	}
	return recv + "." + fn.Name.Name, pointer
}

// stripTypeArgs drops every bracketed group: F[go.shape.int] is F.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func shortName(sym string) string {
	if rest, ok := strings.CutPrefix(sym, modulePath+"/internal/"); ok {
		return rest
	}
	return sym
}

func goCmd(t *testing.T, args ...string) string {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out)
}
