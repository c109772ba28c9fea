package repro

// Dead-function guard: every exported package-level function under
// internal/ must have a caller outside tests — in the module's own
// non-test files or in the bench/ module. A function only tests call is
// either dead (delete it with its tests) or a test oracle (move it into
// the package's _test.go files). Methods are out of scope: interface
// satisfaction makes their callers invisible to a syntactic scan.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadFuncAllowlist names functions kept without a production caller,
// keyed "importpath.Name", each with the reason it stays.
var deadFuncAllowlist = map[string]string{
	"repro/internal/experiments.MeasureVolume": "drives the Theorem-3.1 volume tests and is the volume reference bench/workloads.go cites",
	"repro/internal/conformance.Diff":          "compares transport reports for the conformance, chaos and worker test suites; tests in three packages cannot share a _test.go file",
}

// goFile is one parsed non-test source file and the import path of its
// package.
type goFile struct {
	pkg  string
	file *ast.File
}

// parseNonTestFiles parses every non-test .go file under dir, mapping
// directories to import paths rooted at module.
func parseNonTestFiles(t *testing.T, fset *token.FileSet, dir, module string) []goFile {
	t.Helper()
	var out []goFile
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != dir && (name == "testdata" || name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, filepath.Dir(p))
		if err != nil {
			return err
		}
		out = append(out, goFile{pkg: path.Join(module, filepath.ToSlash(rel)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNoUncalledExportedFunctions(t *testing.T) {
	fset := token.NewFileSet()
	files := parseNonTestFiles(t, fset, ".", "repro")
	files = append(files, parseNonTestFiles(t, fset, "bench", "repro/bench")...)

	// Declared: exported package-level functions of internal/ packages.
	declared := map[string]token.Pos{}
	for _, gf := range files {
		if !strings.HasPrefix(gf.pkg, "repro/internal/") {
			continue
		}
		for _, d := range gf.file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				declared[gf.pkg+"."+fd.Name.Name] = fd.Name.Pos()
			}
		}
	}

	// Referenced: qualified uses through an import, plus bare uses
	// inside the declaring package (its own declaration excluded).
	used := map[string]bool{}
	for _, gf := range files {
		imports := map[string]string{}
		for _, is := range gf.file.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(p)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(gf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[p+"."+n.Sel.Name] = true
					}
				}
			case *ast.Ident:
				key := gf.pkg + "." + n.Name
				if pos, ok := declared[key]; ok && pos != n.Pos() {
					used[key] = true
				}
			}
			return true
		})
	}

	var dead []string
	for key, pos := range declared {
		if used[key] {
			if _, ok := deadFuncAllowlist[key]; ok {
				t.Errorf("%s is allowlisted but has a production caller; drop it from deadFuncAllowlist", key)
			}
			continue
		}
		if _, ok := deadFuncAllowlist[key]; ok {
			continue
		}
		dead = append(dead, fset.Position(pos).String()+": "+key)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no non-test caller: %s", d)
	}
	for key := range deadFuncAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlisted %s is no longer declared; drop it from deadFuncAllowlist", key)
		}
	}
}
