package main_test

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
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportsAllowlist names the exported names in internal/ that may go
// without a caller outside tests: one per line, then " -- " and the
// reason.
const exportsAllowlist = "EXPORTS_allowlist.txt"

// listedPackage is the part of `go list -json` the exports gate reads.
// With -test, a test variant's GoFiles are every file it compiles.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	Imports    []string // resolved: a test variant's "path [p.test]" IDs
	Module     *struct {
		Path string
		Main bool
	}
}

// exportDecl is one exported declaration of a package under internal/.
type exportDecl struct {
	name   string // internal/sim.(*Engine).Pending
	pos    token.Position
	exempt bool // a method that satisfies a declared interface
}

// exportRefs records which kinds of reference reached a declaration: one
// from a non-test file (caller) or one from a _test.go file (test).
type exportRefs struct{ caller, test bool }

// exportGate type-checks a module from source, test variants included,
// and records every reference to a module declaration by the position of
// that declaration, so a use from a test variant and one from the plain
// build land on the same key.
type exportGate struct {
	modPath string
	fset    *token.FileSet
	files   map[string]*ast.File
	checked map[string]*types.Package // by go list ID
	refs    map[token.Position]*exportRefs
}

// findUncalledExports returns, for the module rooted at dir, every
// exported func, method, const, var, type or struct field declared in
// internal/ that no file but a _test.go file references, mapped to
// "file:line: reason". declared holds the name of
// every declaration the gate considered, flagged or not.
func findUncalledExports(dir string) (flagged map[string]string, declared map[string]bool, err error) {
	list := exec.Command("go", "list", "-deps", "-test", "-json", "./...")
	list.Dir = dir
	list.Env = append(os.Environ(), "GOFLAGS=")
	var stderr bytes.Buffer
	list.Stderr = &stderr
	out, err := list.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	g := &exportGate{
		fset:    token.NewFileSet(),
		files:   map[string]*ast.File{},
		checked: map[string]*types.Package{},
		refs:    map[token.Position]*exportRefs{},
	}
	std := importer.Default()
	var plain []*listedPackage
	// go list -deps prints every package after its dependencies.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, nil, err
		}
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue // std comes from export data; skip generated test mains
		}
		if p.Module != nil && p.Module.Main {
			g.modPath = p.Module.Path
			if !strings.Contains(p.ImportPath, " ") && !strings.HasSuffix(p.ImportPath, "_test") {
				plain = append(plain, p)
			}
		}
		if err := g.check(p, std); err != nil {
			return nil, nil, err
		}
	}

	ifaces := g.interfaces()
	flagged, declared = map[string]string{}, map[string]bool{}
	for _, p := range plain {
		rel := strings.TrimPrefix(p.ImportPath, g.modPath+"/")
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		for _, d := range g.declarations(rel, g.checked[p.ImportPath], ifaces) {
			declared[d.name] = true
			r := g.refs[d.pos]
			if d.exempt || r != nil && r.caller {
				continue
			}
			reason := "no reference"
			if r != nil && r.test {
				reason = "only tests"
			}
			flagged[d.name] = fmt.Sprintf("%s/%s:%d: %s", rel, filepath.Base(d.pos.Filename), d.pos.Line, reason)
		}
	}
	return flagged, declared, nil
}

// check type-checks one listed package (plain build or test variant)
// against the packages checked before it and records its references.
func (g *exportGate) check(p *listedPackage, std types.Importer) error {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := filepath.Join(p.Dir, name)
		f, ok := g.files[path]
		if !ok {
			var err error
			if f, err = parser.ParseFile(g.fset, path, nil, parser.SkipObjectResolution); err != nil {
				return err
			}
			g.files[path] = f
		}
		files = append(files, f)
	}
	imp := importerFunc(func(path string) (*types.Package, error) {
		id := path
		for _, i := range p.Imports {
			if strings.HasPrefix(i, path+" [") {
				id = i
			}
		}
		if pkg, ok := g.checked[id]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	path, _, _ := strings.Cut(p.ImportPath, " ")
	pkg, err := (&types.Config{Importer: imp}).Check(path, g.fset, files, info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.ImportPath, err)
	}
	g.checked[p.ImportPath] = pkg

	// A method's receiver names its own type; that is no use of the type.
	receivers := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						receivers[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if !receivers[id] {
			g.use(id.Pos(), obj)
		}
	}
	// An unkeyed struct literal uses every field it sets.
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if st, ok := info.TypeOf(lit).Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					g.use(lit.Pos(), st.Field(i))
				}
			}
			return true
		})
	}
	return nil
}

// use records a reference at pos to obj, if obj is the module's own. A
// reference from any _test.go file, in obj's package or another, is a
// test's; any other reference is a caller.
func (g *exportGate) use(pos token.Pos, obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path()+"/", g.modPath+"/") {
		return
	}
	decl := g.fset.Position(obj.Pos())
	r := g.refs[decl]
	if r == nil {
		r = &exportRefs{}
		g.refs[decl] = r
	}
	if strings.HasSuffix(g.fset.Position(pos).Filename, "_test.go") {
		r.test = true
	} else {
		r.caller = true
	}
}

// interfaces indexes by method name every non-empty, non-generic named
// interface the module or a package it imports declares, plus error.
func (g *exportGate) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(t types.Type) {
		named, ok := t.(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return
		}
		it, ok := named.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range g.checked {
		walk(pkg)
	}
	return byMethod
}

// declarations lists a package's exported funcs, consts, vars and types,
// the exported methods and non-embedded fields of its named types, and
// marks the methods that satisfy one of ifaces.
func (g *exportGate) declarations(rel string, pkg *types.Package, ifaces map[string][]*types.Interface) []exportDecl {
	var decls []exportDecl
	add := func(obj types.Object, name string, exempt bool) {
		decls = append(decls, exportDecl{name: rel + "." + name, pos: g.fset.Position(obj.Pos()), exempt: exempt})
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			add(obj, name, false)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !m.Exported() {
				continue
			}
			recv := name
			if _, ptr := m.Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				recv = "(*" + name + ")"
			}
			add(m, recv+"."+m.Name(), satisfiesInterface(named, m.Name(), ifaces))
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					add(f, name+"."+f.Name(), false)
				}
			}
		}
	}
	return decls
}

// satisfiesInterface reports whether T or *T implements an interface that
// has a method of this name.
func satisfiesInterface(t *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[method] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// readExportsAllowlist parses the allowlist: "name -- reason" per line,
// blank lines and # comments ignored.
func readExportsAllowlist(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " -- ")
		name, reason = strings.TrimSpace(name), strings.TrimSpace(reason)
		if reason == "" {
			return nil, fmt.Errorf("%s:%d: %q has no reason (want \"name -- reason\")", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// exportProblems lists, sorted, every flagged name the allowlist does not
// excuse and every allowlist entry that excuses nothing: one that names
// no declaration, or one whose name now has a caller.
func exportProblems(flagged map[string]string, declared map[string]bool, allow map[string]string) []string {
	var problems []string
	for name, where := range flagged {
		if _, ok := allow[name]; !ok {
			problems = append(problems, fmt.Sprintf("%s %s: delete it, move it into a _test.go file, or list it in %s with a reason", name, where, exportsAllowlist))
		}
	}
	for name := range allow {
		switch {
		case !declared[name]:
			problems = append(problems, fmt.Sprintf("%s: stale allowlist entry: no exported declaration in internal/ has this name", name))
		case flagged[name] == "":
			problems = append(problems, fmt.Sprintf("%s: stale allowlist entry: it has a caller outside its own tests now", name))
		}
	}
	sort.Strings(problems)
	return problems
}

// TestExportsHaveCallers fails on every exported name in internal/ that
// only tests use. References from the non-test files of internal/, cmd/,
// the root package and benchmark/ are callers; tests are not, in the
// name's own package or any other. A method that satisfies an interface
// declared in the module or a package it imports (String, heap and sort
// methods, ...) is exempt. A flagged
// name is deleted, moved into the test that uses it (an export_test.go
// for several), or listed in EXPORTS_allowlist.txt with a reason.
func TestExportsHaveCallers(t *testing.T) {
	flagged, declared, err := findUncalledExports(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readExportsAllowlist(exportsAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range exportProblems(flagged, declared, allow) {
		t.Error(p)
	}
}

// TestExportsGateFlagsUncalled runs the gate on a scratch module: an
// unused func, a method only the package's own test calls, a func only
// another package's test calls, and a type only its method's receiver
// names are flagged; a String method, fields
// set by position and an allowlisted name pass; allowlist entries naming
// a missing declaration or a name with a caller are stale.
func TestExportsGateFlagsUncalled(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module gatefix\n\ngo 1.22\n",
		"internal/x/x.go": `package x

// T is used by the command.
type T struct{ Field int }

// Unused has no reference at all.
func Unused() {}

// OnlyTests is called by x_test.go alone.
func (T) OnlyTests() {}

// String satisfies fmt.Stringer, so it needs no caller.
func (T) String() string { return "" }

// Allowed has no caller but is allowlisted.
func Allowed() {}

// Called has a caller and an allowlist entry.
func Called() {}

// Dead is named only by its own method's receiver.
type Dead struct{}

// Touch has no caller either.
func (Dead) Touch() {}

// Pair's fields are set by position only.
type Pair struct{ A, B int }

// Fixture is called by another package's test alone.
func Fixture() {}
`,
		"internal/x/x_test.go": `package x

import "testing"

func TestOnly(t *testing.T) { T{}.OnlyTests() }
`,
		"cmd/m/main.go": `package main

import (
	"fmt"

	"gatefix/internal/x"
)

func main() { x.Called(); fmt.Println(x.T{Field: 1}, x.Pair{1, 2}) }
`,
		"cmd/m/main_test.go": `package main

import (
	"testing"

	"gatefix/internal/x"
)

func TestFixture(t *testing.T) { x.Fixture() }
`,
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flagged, declared, err := findUncalledExports(dir)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]string{
		"internal/x.Allowed": "kept on purpose",
		"internal/x.Missing": "names nothing",
		"internal/x.Called":  "has a caller",
	}
	got := strings.Join(exportProblems(flagged, declared, allow), "\n")
	want := strings.Join([]string{
		"internal/x.Called: stale allowlist entry: it has a caller outside its own tests now",
		"internal/x.Dead internal/x/x.go:22: no reference: delete it, move it into a _test.go file, or list it in " + exportsAllowlist + " with a reason",
		"internal/x.Dead.Touch internal/x/x.go:25: no reference: delete it, move it into a _test.go file, or list it in " + exportsAllowlist + " with a reason",
		"internal/x.Fixture internal/x/x.go:31: only tests: delete it, move it into a _test.go file, or list it in " + exportsAllowlist + " with a reason",
		"internal/x.Missing: stale allowlist entry: no exported declaration in internal/ has this name",
		"internal/x.T.OnlyTests internal/x/x.go:10: only tests: delete it, move it into a _test.go file, or list it in " + exportsAllowlist + " with a reason",
		"internal/x.Unused internal/x/x.go:7: no reference: delete it, move it into a _test.go file, or list it in " + exportsAllowlist + " with a reason",
	}, "\n")
	if got != want {
		t.Errorf("gate on the scratch module:\n got:\n%s\nwant:\n%s", got, want)
	}
}
