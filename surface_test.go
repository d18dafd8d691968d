package xbiosip_test

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

// surfaceAllowed lists the exported methods that may go without a
// non-test reference: those fmt and sort reach through interfaces, and
// the bit-serial arith models that tests in other packages compare
// against (Go cannot import another package's test files).
var surfaceAllowed = map[string]bool{
	"String": true, "Error": true, "Len": true, "Less": true, "Swap": true,
	"internal/arith.Adder.AddSigned":      true,
	"internal/arith.Adder.SubSigned":      true,
	"internal/arith.Multiplier.MulSigned": true,
}

// TestProductionSurface fails for every function or method, exported or
// not, declared in a non-test file under internal/ that no non-test file
// under internal/, cmd/, examples/ or bench/ references. Matching is by
// name, without type checking: a function counts as referenced when a
// file names it through its package's import (or bare, inside its
// package, the only place an unexported one can be named), a method when
// any selector not on a package name has its name. A declaration is not
// its own reference. A dead helper gets deleted, and an oracle only tests
// call belongs in a _test.go file of its package.
func TestProductionSurface(t *testing.T) {
	type decl struct {
		key, name, pos string
		method         bool
	}
	var decls []decl
	funcRefs := map[string]bool{} // "<package dir>.<Name>"
	methodRefs := map[string]bool{}
	fset := token.NewFileSet()
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, 0)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(p))
			imports := map[string]string{} // file-local name -> package dir
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				name := path.Base(ip)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = strings.TrimPrefix(ip, "github.com/xbiosip/xbiosip/")
			}
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fd.Name] = true
				if !strings.HasPrefix(dir, "internal/") || fd.Name.Name == "init" {
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
			t.Fatal(err)
		}
	}
	var unused []string
	for _, d := range decls {
		switch {
		case d.method && (methodRefs[d.name] || surfaceAllowed[d.name] || surfaceAllowed[d.key]):
		case !d.method && funcRefs[d.key]:
		default:
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no non-test reference: delete it, or move it into its package's tests", u)
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
