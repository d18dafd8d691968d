package xbiosip_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"
)

// surfaceAllowed lists the exported methods that may go without a
// non-test reference: those fmt and sort reach through interfaces.
var surfaceAllowed = map[string]bool{"String": true, "Error": true, "Len": true, "Less": true, "Swap": true}

// oraclePkg holds the reference models the tests compare against. Only
// _test.go files may import it, and its declarations need no non-test
// reference.
const oraclePkg = "internal/oracle"

// surfaceScan is what one walk of the production surface finds.
type surfaceScan struct {
	// problems are the findings, sorted, one line each.
	problems []string
	// decls counts the functions and methods scanned per package under
	// internal/, every package with a non-test file included.
	decls map[string]int
}

// scanSurface parses every non-test file under internal/, cmd/, examples/
// and bench/ of fsys and reports each function or method, exported or
// not, declared in a non-test file under internal/ (outside oraclePkg)
// that none of them references, and each of them outside oraclePkg that
// imports oraclePkg. Matching is by name, without type checking: a
// function counts as referenced when a file names it through its
// package's import (or bare, inside its package, the only place an
// unexported one can be named), a method when any selector not on a
// package name has its name. A declaration is not its own reference.
func scanSurface(fsys fs.FS) (surfaceScan, error) {
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	scan := surfaceScan{decls: map[string]int{}}
	funcRefs := map[string]bool{} // "<package dir>.<Name>"
	methodRefs := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		if _, err := fs.Stat(fsys, root); err != nil {
			continue
		}
		err := fs.WalkDir(fsys, root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			src, err := fs.ReadFile(fsys, p)
			if err != nil {
				return err
			}
			f, err := parser.ParseFile(fset, p, src, 0)
			if err != nil {
				return err
			}
			dir := path.Dir(p)
			internal := strings.HasPrefix(dir, "internal/")
			if _, seen := scan.decls[dir]; internal && !seen {
				scan.decls[dir] = 0 // a package counts even if it declares nothing
			}
			imports := map[string]string{} // file-local name -> package dir
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = strings.TrimPrefix(ip, "github.com/xbiosip/xbiosip/")
				if imports[name] == oraclePkg && dir != oraclePkg {
					scan.problems = append(scan.problems, fset.Position(im.Pos()).String()+": imports "+oraclePkg+", which only _test.go files may")
				}
			}
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fd.Name] = true
				if !internal || fd.Name.Name == "init" {
					continue
				}
				scan.decls[dir]++
				if dir == oraclePkg {
					continue
				}
				dc := decl{key: dir + "." + fd.Name.Name, name: fd.Name.Name, pos: fset.Position(fd.Pos()).String()}
				if fd.Recv != nil {
					dc.method = true
					dc.key = dir + "." + receiverName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, dc)
			}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						funcRefs[imports[x.Name]+"."+n.Sel.Name] = true
					} else {
						methodRefs[n.Sel.Name] = true
						ast.Inspect(n.X, visit)
					}
					return false
				case *ast.Ident:
					if !declared[n] {
						funcRefs[dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(f, visit)
			return nil
		})
		if err != nil {
			return scan, err
		}
	}
	for _, d := range decls {
		switch {
		case d.method && (methodRefs[d.name] || surfaceAllowed[d.name]):
		case !d.method && funcRefs[d.key]:
		default:
			scan.problems = append(scan.problems, d.pos+": "+d.key+" has no non-test reference")
		}
	}
	slices.Sort(scan.problems)
	return scan, nil
}

// TestProductionSurface fails for every finding of scanSurface over the
// repository: a dead helper gets deleted, an oracle only one package's
// tests call belongs in a _test.go file of its package, and one several
// packages' tests share in internal/oracle. It also fails when the walk
// scans no declaration in some package under internal/, so that it cannot
// pass without checking anything.
func TestProductionSurface(t *testing.T) {
	scan, err := scanSurface(os.DirFS("."))
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.decls) == 0 {
		t.Fatal("scanned no package under internal/")
	}
	for dir, n := range scan.decls {
		if n == 0 {
			t.Errorf("%s: scanned no declaration", dir)
		}
	}
	for _, p := range scan.problems {
		t.Errorf("%s: delete it, move it into its package's tests, or into %s", p, oraclePkg)
	}
}

// TestProductionSurfaceFixture runs scanSurface over a small tree that
// holds one of each finding — an unreferenced function, a method and a
// function named only from a _test.go file, and a non-test importer of
// internal/oracle — beside a referenced function and an unreferenced
// oracle, which it must not report.
func TestProductionSurfaceFixture(t *testing.T) {
	fsys := fstest.MapFS{
		"internal/a/a.go": {Data: []byte(`package a

func Used() {}

func unused() {}

type T struct{}

func (T) OnlyTested() {}
`)},
		"internal/a/a_test.go": {Data: []byte(`package a

import "testing"

func TestT(t *testing.T) { T{}.OnlyTested(); unused() }
`)},
		"internal/oracle/oracle.go": {Data: []byte(`package oracle

func Model() {}

func Unused() {}
`)},
		"cmd/x/main.go": {Data: []byte(`package main

import (
	"github.com/xbiosip/xbiosip/internal/a"
	"github.com/xbiosip/xbiosip/internal/oracle"
)

func main() { a.Used(); oracle.Model() }
`)},
	}
	scan, err := scanSurface(fsys)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cmd/x/main.go:5:2: imports internal/oracle, which only _test.go files may",
		"internal/a/a.go:5:1: internal/a.unused has no non-test reference",
		"internal/a/a.go:9:1: internal/a.T.OnlyTested has no non-test reference",
	}
	if !slices.Equal(scan.problems, want) {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(scan.problems, "\n"), strings.Join(want, "\n"))
	}
	if scan.decls["internal/a"] != 3 || scan.decls["internal/oracle"] != 2 || len(scan.decls) != 2 {
		t.Errorf("declarations scanned per package %v, want internal/a 3 and internal/oracle 2", scan.decls)
	}
}

// receiverName is the type name of a method receiver: T, *T, T[P] or *T[P].
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
