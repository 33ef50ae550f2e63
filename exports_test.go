package ctcomm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports lists the exported internal names that no non-test
// code references, each with the reason it stays. Everything else that
// only tests reach is deleted, so the list must shrink, not grow.
var testOnlyExports = map[string]string{
	// Test oracles: independent implementations or accounting that
	// tests compare the production path against.
	"fft.DFT":                     "naive transform the FFT tests compare against",
	"pattern.IsPermutation":       "checks the permutations the index generators produce",
	"pattern.Stream.Addresses":    "ground-truth address sequence for the stream unit and fuzz tests",
	"distrib.Transfer.SrcOffsets": "materialized source offsets the symbolic plan is checked against",
	"distrib.Transfer.DstOffsets": "materialized destination offsets the symbolic plan is checked against",
	"sim.Resource.Busy":           "per-resource busy time the netsim tests compare between Batch and its reference",
	"sim.Resource.Claims":         "per-resource claim count the netsim tests compare between Batch and its reference",
	"sim.Resource.Utilization":    "per-resource utilization the netsim tests compare between Batch and its reference",
	// Test helpers.
	"model.MustParse": "parses literal expressions in tests",
	// Methods the standard library calls through an interface.
	"machine.Machine.MarshalJSON":     "called by encoding/json",
	"machine.Machine.UnmarshalJSON":   "called by encoding/json",
	"query.FitResponse.UnmarshalJSON": "called by encoding/json",
}

// TestNoTestOnlyExports fails when an exported top-level name declared
// in a non-test internal/ file is referenced by no non-test file of the
// module or of the perfbench module. A package-level name counts as
// referenced when its own package uses it or another package selects
// it through its import; a method, whose receiver type a parser cannot
// resolve, counts as referenced when any selector carries its name.
// References from inside the name's own declaration do not count. The
// perfbench module's test files count as users, because that module is
// the benchmark and is edited separately.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		dir     string
		ast     *ast.File
		imports map[string]string // local name -> import path
	}
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		inPerfbench := strings.HasPrefix(path, "perfbench"+string(filepath.Separator))
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") && !inPerfbench {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, is := range f.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = p
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(path)), f, imports})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// decl is one exported internal name: a package-level name is keyed
	// by its import path, a method by its name alone.
	type decl struct {
		id         string // reported as pkg.Name or pkg.Recv.Method
		importPath string
		method     bool
		name       string
		pos        token.Position
		node       ast.Node
	}
	var decls []decl
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		pkg := f.dir[strings.LastIndex(f.dir, "/")+1:]
		add := func(name *ast.Ident, recv string, node ast.Node) {
			if !name.IsExported() {
				return
			}
			id := pkg + "." + name.Name
			if recv != "" {
				id = pkg + "." + recv + "." + name.Name
			}
			decls = append(decls, decl{id, "ctcomm/" + f.dir, recv != "", name.Name, fset.Position(name.Pos()), node})
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = receiverName(d.Recv.List[0].Type)
				}
				add(d.Name, recv, d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "", s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "", s)
						}
					}
				}
			}
		}
	}

	// Count the references each package-level name and each method
	// name receives, remembering where, so that a declaration's own
	// body can be discounted.
	pkgRefs := map[string][]token.Pos{}    // importPath.Name -> references
	methodRefs := map[string][]token.Pos{} // Name -> references
	for _, f := range files {
		self := "ctcomm"
		if f.dir != "." {
			self += "/" + f.dir
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a reference.
				if n.Recv != nil {
					ast.Inspect(n.Recv, visit)
				}
				ast.Inspect(n.Type, visit)
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				methodRefs[n.Sel.Name] = append(methodRefs[n.Sel.Name], n.Sel.Pos())
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := f.imports[x.Name]; ok {
						key := p + "." + n.Sel.Name
						pkgRefs[key] = append(pkgRefs[key], n.Sel.Pos())
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				key := self + "." + n.Name
				pkgRefs[key] = append(pkgRefs[key], n.Pos())
			}
			return true
		}
		ast.Inspect(f.ast, visit)
	}

	unused := map[string]token.Position{}
	for _, d := range decls {
		refs := pkgRefs[d.importPath+"."+d.name]
		if d.method {
			refs = methodRefs[d.name]
		}
		used := false
		for _, pos := range refs {
			if pos < d.node.Pos() || pos >= d.node.End() {
				used = true
				break
			}
		}
		if !used {
			unused[d.id] = d.pos
		}
	}

	var ids []string
	for id := range unused {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, ok := testOnlyExports[id]; !ok {
			t.Errorf("%s: exported %s has no non-test reference; delete it, or list it in testOnlyExports with the reason it stays", unused[id], id)
		}
	}
	for id := range testOnlyExports {
		if _, ok := unused[id]; !ok {
			t.Errorf("testOnlyExports lists %s, which non-test code now references or which is gone; remove the entry", id)
		}
	}
}

// receiverName returns the type name of a method receiver expression.
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
