package batching

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneRunLoopLint keeps the run loop from forking again. It walks every
// non-test Go file of the module outside this package and fails if one
//
//   - asks the Core for an admission (Core.AdmitBudget, or Core.Admit's
//     three-argument call): forming a running batch is the Runner's job;
//   - ranges over a batch calling EditSession.Step anywhere but in a method
//     of an Executor (a type that declares RunTurn): stepping a batch is
//     what the Runner hands to its Executor.
//
// benchmark/ is a module of its own (it times Core.Admit as an operation)
// and is not walked.
func TestOneRunLoopLint(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	self := filepath.Join(root, "internal", "batching")

	fset := token.NewFileSet()
	files := 0
	var findings []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") ||
				path == self || path == filepath.Join(root, "benchmark")) {
				return filepath.SkipDir
			}
			return lintDir(fset, path, &files, &findings)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("lint parsed only %d files — walker broken?", files)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// The lint finds Executors by this method's name; a rename must come here
// too.
var _ = Executor.RunTurn

// lintDir checks one package directory's non-test files.
func lintDir(fset *token.FileSet, dir string, files *int, findings *[]string) error {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return err
	}
	for _, pkg := range pkgs {
		// The package's Executor types: receivers that declare RunTurn.
		executors := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "RunTurn" {
					executors[receiver(fn)] = true
				}
			}
		}
		for _, f := range pkg.Files {
			*files++
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				inExecutor := executors[receiver(fn)] && receiver(fn) != ""
				lintBody(fset, fn.Body, false, inExecutor, findings)
			}
		}
	}
	return nil
}

// receiver returns a method's receiver type name ("" for a function).
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// lintBody walks a function body, tracking whether it is inside a range
// statement.
func lintBody(fset *token.FileSet, n ast.Node, inRange, inExecutor bool, findings *[]string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			lintBody(fset, n.Body, true, inExecutor, findings)
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pos := fset.Position(n.Pos()).String()
			switch {
			case sel.Sel.Name == "AdmitBudget",
				sel.Sel.Name == "Admit" && len(n.Args) == 3:
				*findings = append(*findings, pos+
					": admission decided outside internal/batching — the Runner forms running batches")
			case sel.Sel.Name == "Step" && len(n.Args) == 0 && inRange && !inExecutor:
				*findings = append(*findings, pos+
					": a batch is stepped outside a batching.Executor — the Runner hands turns to its Executor")
			}
		}
		return true
	})
}
