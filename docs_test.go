package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTest is a test, fuzz target or benchmark a document names, as
// `pkg.TestX`, inside a backticked span on one line; `pkg.TestX*` names
// every one whose name begins TestX.
var citedTest = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)(\*?)`)

// TestCitedTestsExist fails on every backticked `pkg.TestX`, `pkg.FuzzX` or
// `pkg.BenchmarkX` in README.md, DESIGN.md and EXPERIMENTS.md that names no
// function in the tests of a package called pkg: a document that points at
// a test sends its reader to the evidence, which must be there.
func TestCitedTestsExist(t *testing.T) {
	tests, err := testFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`[^`\n]+`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, s := range span.FindAllString(line, -1) {
				for _, m := range citedTest.FindAllStringSubmatch(s, -1) {
					found := tests[m[1]][m[2]]
					for name := range tests[m[1]] {
						found = found || m[3] == "*" && strings.HasPrefix(name, m[2])
					}
					if !found {
						t.Errorf("%s:%d: %s.%s names no function in the tests of a package %s", doc, i+1, m[1], m[2], m[1])
					}
				}
			}
		}
	}
}

// testFuncs maps each package name in the module under dir to the top-level
// functions its test files declare.
func testFuncs(dir string) (map[string]map[string]bool, error) {
	funcs := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(p string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if name := e.Name(); p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		for _, name := range append(bp.TestGoFiles, bp.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					if funcs[bp.Name] == nil {
						funcs[bp.Name] = map[string]bool{}
					}
					funcs[bp.Name][fd.Name.Name] = true
				}
			}
		}
		return nil
	})
	return funcs, err
}
