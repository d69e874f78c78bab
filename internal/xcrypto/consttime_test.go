package xcrypto

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// TestScalarCodeIsBranchFree holds scalar.go, and the bound key's
// signatureS that feeds it the secret scalar and nonce, to what scalar.go's
// doc comment argues: nothing there branches on, indexes by or shifts by a
// value. It fails on any if, switch or select; on && and ||, which
// short-circuit; and on a for condition, an index or slice bound, or a
// shift count built from anything but loop counters, constants and len().
func TestScalarCodeIsBranchFree(t *testing.T) {
	fset := token.NewFileSet()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("glimmers/internal/xcrypto", fset, files, info); err != nil {
		t.Fatal(err)
	}

	// The code under guard: all of scalar.go, and signatureS.
	var guarded []ast.Node
	for _, f := range files {
		if filepath.Base(fset.Position(f.Pos()).Filename) == "scalar.go" {
			guarded = append(guarded, f)
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "signatureS" {
				guarded = append(guarded, fn)
			}
		}
	}
	if len(guarded) != 2 {
		t.Fatalf("found %d of the 2 guarded units (scalar.go, signatureS)", len(guarded))
	}

	// Loop counters: what a for statement's init declares, and the key of
	// a range over an array, a slice or an integer — positions, never
	// values.
	counters := map[types.Object]bool{}
	for _, n := range guarded {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt:
				if init, ok := n.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
					for _, lhs := range init.Lhs {
						counters[info.Defs[lhs.(*ast.Ident)]] = true
					}
				}
			case *ast.RangeStmt:
				key, ok := n.Key.(*ast.Ident)
				if !ok || n.Tok != token.DEFINE {
					break
				}
				typ := info.Types[n.X].Type.Underlying()
				if p, ok := typ.(*types.Pointer); ok {
					typ = p.Elem().Underlying()
				}
				switch typ := typ.(type) {
				case *types.Array, *types.Slice:
					counters[info.Defs[key]] = true
				case *types.Basic:
					counters[info.Defs[key]] = typ.Info()&types.IsInteger != 0
				}
			}
			return true
		})
	}

	// public reports whether e is built only from loop counters, constants
	// and len().
	var public func(e ast.Expr) bool
	public = func(e ast.Expr) bool {
		if tv := info.Types[e]; tv.Value != nil {
			return true
		}
		switch e := e.(type) {
		case *ast.ParenExpr:
			return public(e.X)
		case *ast.Ident:
			return counters[info.Uses[e]]
		case *ast.UnaryExpr:
			return public(e.X)
		case *ast.BinaryExpr:
			return public(e.X) && public(e.Y)
		case *ast.CallExpr:
			id, ok := e.Fun.(*ast.Ident)
			if !ok {
				return false
			}
			_, builtin := info.Uses[id].(*types.Builtin)
			return builtin && id.Name == "len"
		}
		return false
	}

	for _, n := range guarded {
		ast.Inspect(n, func(n ast.Node) bool {
			var why string
			switch n := n.(type) {
			case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				why = "branches"
			case *ast.BinaryExpr:
				switch n.Op {
				case token.LAND, token.LOR:
					why = "short-circuits"
				case token.SHL, token.SHR:
					if !public(n.Y) {
						why = "shifts by a value"
					}
				}
			case *ast.AssignStmt:
				if (n.Tok == token.SHL_ASSIGN || n.Tok == token.SHR_ASSIGN) && !public(n.Rhs[0]) {
					why = "shifts by a value"
				}
			case *ast.ForStmt:
				if n.Cond != nil && !public(n.Cond) {
					why = "loops on a value"
				}
			case *ast.IndexExpr:
				if !public(n.Index) {
					why = "indexes by a value"
				}
			case *ast.SliceExpr:
				for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
					if bound != nil && !public(bound) {
						why = "slices by a value"
					}
				}
			}
			if why != "" {
				t.Errorf("%s: %s", fset.Position(n.Pos()), why)
			}
			return true
		})
	}
}
