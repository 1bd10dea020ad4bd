package lvm_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// listedPkg is the part of `go list -json` the root tests read.
type listedPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	ForTest      string            // set on a test variant: the package under test
	ImportMap    map[string]string // import path -> test variant that replaces it
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
}

// goList lists the packages matching patterns in dir, their test
// variants and every package they import, dependencies first, with
// each one's compiled export data.
func goList(dir string, patterns ...string) ([]listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-export", "-test", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// module is the root module and bench/, which imports the same internal
// packages, type-checked from source: every package and every test
// variant, so each .go file of both modules is checked with its own
// test files in scope. The standard library comes from its export data.
type module struct {
	fset     *token.FileSet
	pkgs     []*loadedPkg           // module packages and test variants, dependencies first
	files    map[string]checkedFile // by absolute path; each file once
	importer types.Importer         // the module's non-test packages and the standard library
}

type loadedPkg struct {
	listedPkg
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// checkedFile is one parsed file with the type information of a package
// it was checked in.
type checkedFile struct {
	*ast.File
	info *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var loaded struct {
	sync.Once
	m   *module
	err error
}

// loadModule loads the module once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	loaded.Do(func() { loaded.m, loaded.err = load() })
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.m
}

func load() (*module, error) {
	// bench/ replaces lvm with the root module, so one listing there
	// covers both modules.
	listed, err := goList("bench", "lvm/...", ".")
	if err != nil {
		return nil, err
	}
	m := &module{fset: token.NewFileSet(), files: map[string]checkedFile{}}
	exports := map[string]string{}
	std := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	checked := map[string]*types.Package{}
	m.importer = importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		return std.Import(path)
	})
	for _, p := range listed {
		if p.Standard {
			exports[p.ImportPath] = p.Export
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") { // generated test main
			continue
		}
		// A package recompiled for another package's test only because it
		// imports it is checked for its types alone; its files are checked
		// in full as part of the package itself.
		pkgPath, _, _ := strings.Cut(p.ImportPath, " ")
		typesOnly := p.ForTest != "" && pkgPath != p.ForTest && pkgPath != p.ForTest+"_test"
		lp := &loadedPkg{listedPkg: p, info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Types:      map[ast.Expr]types.TypeAndValue{},
		}}
		m.pkgs = append(m.pkgs, lp)
		for _, name := range p.GoFiles {
			path := filepath.Join(p.Dir, name)
			cf, ok := m.files[path]
			if !ok {
				if cf.File, err = parser.ParseFile(m.fset, path, nil, parser.ParseComments); err != nil {
					return nil, err
				}
			}
			if cf.info == nil && !typesOnly {
				cf.info = lp.info
			}
			m.files[path] = cf
			lp.files = append(lp.files, cf.File)
		}
		if len(lp.files) == 0 {
			continue
		}
		conf := types.Config{IgnoreFuncBodies: typesOnly, Importer: importerFunc(func(path string) (*types.Package, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			return m.importer.Import(path)
		})}
		tp, err := conf.Check(pkgPath, m.fset, lp.files, lp.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		lp.types = tp
		checked[p.ImportPath] = tp
	}
	return m, nil
}

// moduleAPI is what the API gate derives from the module's non-test
// packages: which objects a non-test file refers to, and every
// interface a method might implement.
type moduleAPI struct {
	*module
	nonTest []*loadedPkg // library and main packages, without test files
	used    map[types.Object]bool
	ifs     map[string][]*types.Interface
}

func newModuleAPI(m *module) *moduleAPI {
	a := &moduleAPI{
		module: m,
		used:   map[types.Object]bool{},
		ifs:    map[string][]*types.Interface{},
	}
	for _, p := range m.pkgs {
		if p.ForTest != "" || p.types == nil {
			continue
		}
		a.nonTest = append(a.nonTest, p)
		a.recordUses(p.files, p.info)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				a.addInterface(it)
			}
		}
	}
	a.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	done := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if done[p] {
			return
		}
		done[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				a.addInterface(it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range a.nonTest {
		walk(p.types)
	}
	return a
}

func (m *moduleAPI) addInterface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		m.ifs[name] = append(m.ifs[name], it)
	}
}

// recordUses marks every object a file refers to, except a function's
// references to itself and a method receiver's reference to its own
// type: neither is a caller.
func (m *moduleAPI) recordUses(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, d := range f.Decls {
			var self types.Object
			var recv ast.Node
			switch d := d.(type) {
			case *ast.FuncDecl:
				self = info.Defs[d.Name]
				if d.Recv != nil {
					recv = d.Recv
				}
			case *ast.GenDecl:
				if len(d.Specs) == 1 {
					if ts, ok := d.Specs[0].(*ast.TypeSpec); ok {
						self = info.Defs[ts.Name]
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if n == recv {
					return false
				}
				switch n := n.(type) {
				case *ast.Ident:
					if obj := info.Uses[n]; obj != nil && obj != self {
						m.use(obj)
					}
				case *ast.SelectorExpr:
					if sel := info.Selections[n]; sel != nil && sel.Obj() != self {
						m.use(sel.Obj())
					}
				}
				return true
			})
		}
	}
}

func (m *moduleAPI) use(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		obj = fn.Origin()
	}
	m.used[obj] = true
}

// apiName is one exported function, type or method of a library package.
type apiName struct {
	key string // pkg.Name or pkg.Type.Method
	pos token.Position
	pkg *loadedPkg
}

// unreferenced lists the exported package-level functions and types and
// the exported methods that no non-test file refers to. A method its
// receiver type needs to implement an interface is exempt: calls through
// the interface cannot name it.
func (m *moduleAPI) unreferenced() []apiName {
	var out []apiName
	for _, p := range m.nonTest {
		if p.Name == "main" {
			continue
		}
		tp := p.types
		add := func(obj types.Object, key string) {
			if obj.Exported() && !m.used[obj] {
				out = append(out, apiName{tp.Name() + "." + key, m.fset.Position(obj.Pos()), p})
			}
		}
		for _, name := range tp.Scope().Names() {
			obj := tp.Scope().Lookup(name)
			switch obj := obj.(type) {
			case *types.Func:
				add(obj, name)
			case *types.TypeName:
				add(obj, name)
				n, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < n.NumMethods(); i++ {
					if fn := n.Method(i); !m.implements(n, fn.Name()) {
						add(fn, name+"."+fn.Name())
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func (m *moduleAPI) implements(n *types.Named, method string) bool {
	for _, it := range m.ifs[method] {
		if types.Implements(n, it) || types.Implements(types.NewPointer(n), it) {
			return true
		}
	}
	return false
}

// allowEntry is one line of testdata/api_allowlist.txt: a name no
// program calls, kept because the named Example demonstrates it. The
// Example is in the name's package unless qualified as pkg.ExampleName.
type allowEntry struct {
	name, example string
	line          int
}

func readAllowlist(t *testing.T) []allowEntry {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "api_allowlist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []allowEntry
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 || !strings.HasPrefix(fields[1][strings.IndexByte(fields[1], '.')+1:], "Example") {
			t.Fatalf("api_allowlist.txt:%d: want \"pkg.Name ExampleFunc\", got %q", n, sc.Text())
		}
		out = append(out, allowEntry{fields[0], fields[1], n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// exampleMentions reports whether package p's test files declare the
// Example function example and its body names ident.
func (m *moduleAPI) exampleMentions(p *loadedPkg, example, ident string) (found, mentions bool) {
	for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
		for _, d := range m.files[filepath.Join(p.Dir, name)].Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Name.Name != example {
				continue
			}
			found = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == ident {
					mentions = true
				}
				return !mentions
			})
		}
	}
	return found, mentions
}

// TestExportedNamesHaveCallers fails on any exported function, type or
// method of a library package that no non-test code refers to, unless
// testdata/api_allowlist.txt keeps it for an Example that calls it.
// bench/ counts as a caller; main packages export nothing. Constants,
// variables and struct fields are out of scope.
func TestExportedNamesHaveCallers(t *testing.T) {
	m := newModuleAPI(loadModule(t))
	pkgs := map[string]*loadedPkg{}
	for _, p := range m.nonTest {
		if p.Name != "main" {
			pkgs[p.Name] = p
		}
	}
	unrefs := m.unreferenced()
	unref := map[string]apiName{}
	for _, n := range unrefs {
		unref[n.key] = n
	}
	allowed := map[string]bool{}
	for _, e := range readAllowlist(t) {
		n, ok := unref[e.name]
		if !ok {
			t.Errorf("api_allowlist.txt:%d: %s is not an exported name without a caller", e.line, e.name)
			continue
		}
		allowed[e.name] = true
		p, example := n.pkg, e.example
		if i := strings.IndexByte(example, '.'); i >= 0 {
			p, example = pkgs[example[:i]], example[i+1:]
		}
		ident := e.name[strings.LastIndexByte(e.name, '.')+1:]
		switch found, mentions := m.exampleMentions(p, example, ident); {
		case !found:
			t.Errorf("api_allowlist.txt:%d: no %s in package %s", e.line, e.example, p.ImportPath)
		case !mentions:
			t.Errorf("api_allowlist.txt:%d: %s does not mention %s", e.line, e.example, ident)
		}
	}
	wd, _ := os.Getwd()
	for _, n := range unrefs {
		if allowed[n.key] {
			continue
		}
		file := n.pos.Filename
		if rel, err := filepath.Rel(wd, file); err == nil {
			file = rel
		}
		t.Errorf("%s:%d %s has no caller outside tests", file, n.pos.Line, n.key)
	}
}
