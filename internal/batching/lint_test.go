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

// TestOneRunLoopLint keeps the run loop, and the step path under it, from
// forking again. It walks every non-test Go file of the module outside this
// package and fails if one
//
//   - asks the Core for an admission (Core.AdmitBudget, or Core.Admit's
//     three-argument call): forming a running batch is the Runner's job;
//   - ranges over a batch calling EditSession.Step: a batch advances by one
//     diffusion.Engine.StepBatch per step, of which Step is the one-session
//     case — Executors included (serve, replay), and experiments and
//     examples too. internal/diffusion itself is exempt, and so is
//     cmd/flashps-kernels, whose batch_scaling table times exactly that
//     loop as the "sequential" side.
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
	stepOK := map[string]bool{
		filepath.Join(root, "internal", "diffusion"):  true,
		filepath.Join(root, "cmd", "flashps-kernels"): true,
	}

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
			return lintDir(fset, path, stepOK[path], &files, &findings)
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

// lintDir checks one package directory's non-test files; stepOK lets it
// range over sessions calling Step.
func lintDir(fset *token.FileSet, dir string, stepOK bool, files *int, findings *[]string) error {
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return err
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			*files++
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					lintBody(fset, fn.Body, false, stepOK, findings)
				}
			}
		}
	}
	return nil
}

// lintBody walks a function body, tracking whether it is inside a range
// statement.
func lintBody(fset *token.FileSet, n ast.Node, inRange, stepOK bool, findings *[]string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			lintBody(fset, n.Body, true, stepOK, findings)
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
			case sel.Sel.Name == "Step" && len(n.Args) == 0 && inRange && !stepOK:
				*findings = append(*findings, pos+
					": a batch is stepped session by session — one diffusion.Engine.StepBatch advances it")
			}
		}
		return true
	})
}
