package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the declarations TestReachable keeps although no root
// reaches them, each with the reason it stays. Each is one more root.
var reachAllow = map[string]string{
	"mbuf.Mbuf.CheckInvariants":      "the chain invariant checker the mbuf tests run after every operation",
	"netdev.Port.SetIngressPipeline": "switch-port match-action hook the switch pipeline tests drive; no sweep installs one yet",
	"netdev.Port.SetEgressPipeline":  "the egress side of SetIngressPipeline",
	"plexus.Extension.Unload":        "extension lifecycle: the extension and rogue tests assert its teardown and leak accounting",
	"plexus.Extension.Stats":         "extension lifecycle: the per-extension fault counters the rogue tests assert",
	"plexus.ExtensionCtx.After":      "extension lifecycle: a timer Unload must cancel",
	"plexus.ExtensionCtx.Every":      "extension lifecycle: a ticker Unload must stop",
	"plexus.ExtensionCtx.OnUnload":   "extension lifecycle: a closer Unload must run",
}

// TestReachable is the dead-code gate. Every package-level declaration in
// the module must be reachable from a root: a main, an init, a package-level
// var whose initializer makes a call, or a use in another package's test
// file, an external _test package included (the shared test toolkits). A
// method is reached when it is called, or when its type is reached and
// satisfies an interface the program uses that names the method. Delete
// what it reports, or allowlist it with a reason.
func TestReachable(t *testing.T) {
	dead, err := unreachable(".", "plexus", reachAllow)
	if err != nil {
		t.Fatal(err)
	}
	if len(dead) > 0 {
		report := make([]string, len(dead))
		for i, d := range dead {
			report[i] = fmt.Sprintf("%s: %s", d.pos, d.name)
		}
		t.Errorf("%d declarations no root reaches; delete them, or allowlist them with a reason:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// TestReachableFixture runs the gate over testdata/reach: one unreachable
// func, one func used only from another package's test, and one method
// called only through an interface. Only the first may be reported.
func TestReachableFixture(t *testing.T) {
	dead, err := unreachable(filepath.Join("testdata", "reach"), "reachfix", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	if want := "a.Unused"; len(got) != 1 || got[0] != want {
		t.Fatalf("unreachable = %v, want [%s]", got, want)
	}
}

// A deadDecl is a package-level declaration that no root reaches.
type deadDecl struct {
	pos  token.Position
	name string // pkg.Name, or pkg.Type.Method for a method
}

// reachFset and reachStd are shared by every load so that the standard
// library is type-checked from source once per test binary.
var (
	reachFset = token.NewFileSet()
	reachStd  = importer.ForCompiler(reachFset, "source", nil)
)

// dynamicIfaces are the interfaces the standard library asserts at run
// time, so a method satisfying one is reached without the program naming it.
var dynamicIfaces = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
}

// reachLoader type-checks the module's packages from source, sharing one
// canonical types.Package per import path so objects compare by identity.
type reachLoader struct {
	dirs  map[string]*build.Package
	pkgs  map[string]*reachPkg
	files map[string]*ast.File // a test build reuses its package's parse
}

type reachPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if bp, ok := l.dirs[path]; ok && len(bp.GoFiles) > 0 {
		p, err := l.canonical(path)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	return reachStd.Import(path)
}

func (l *reachLoader) canonical(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	bp := l.dirs[path]
	p, err := l.check(path, bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func (l *reachLoader) check(path, dir string, names ...[]string) (*reachPkg, error) {
	p := &reachPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, list := range names {
		for _, name := range list {
			name = filepath.Join(dir, name)
			f := l.files[name]
			if f == nil {
				var err error
				if f, err = parser.ParseFile(reachFset, name, nil, parser.SkipObjectResolution); err != nil {
					return nil, err
				}
				l.files[name] = f
			}
			p.files = append(p.files, f)
		}
	}
	conf := types.Config{Importer: l}
	var err error
	p.pkg, err = conf.Check(path, reachFset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return p, nil
}

// reachGraph holds one node per package-level declaration of the module.
type reachGraph struct {
	refs    map[types.Object][]types.Object // declaration -> what its syntax uses
	pos     map[types.Object]token.Pos
	ifaces  map[string]*types.Interface // by type string
	seen    map[types.Type]bool
	reached map[types.Object]bool
	queue   []types.Object
}

// unreachable loads the module rooted at dir, whose import path is module,
// and returns its unreachable declarations in source order. The names in
// allow are extra roots; each must name a declaration no other root reaches.
func unreachable(dir, module string, allow map[string]string) ([]deadDecl, error) {
	l := &reachLoader{dirs: map[string]*build.Package{}, pkgs: map[string]*reachPkg{}, files: map[string]*ast.File{}}
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
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		l.dirs[path.Join(module, filepath.ToSlash(rel))] = bp
		return nil
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	g := &reachGraph{
		refs:    map[types.Object][]types.Object{},
		pos:     map[types.Object]token.Pos{},
		ifaces:  map[string]*types.Interface{},
		seen:    map[types.Type]bool{},
		reached: map[types.Object]bool{},
	}
	var roots []types.Object
	var checked []*reachPkg
	for _, ip := range paths {
		bp := l.dirs[ip]
		if len(bp.GoFiles) == 0 {
			continue
		}
		p, err := l.canonical(ip)
		if err != nil {
			return nil, err
		}
		roots = append(roots, g.addDecls(p)...)
		checked = append(checked, p)
	}
	// Tests: a use from another package's test file is a root.
	for _, ip := range paths {
		bp := l.dirs[ip]
		var tests []*reachPkg
		if len(bp.TestGoFiles) > 0 {
			p, err := l.check(ip, bp.Dir, bp.GoFiles, bp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			tests = append(tests, p)
		}
		if len(bp.XTestGoFiles) > 0 {
			p, err := l.check(ip+"_test", bp.Dir, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			tests = append(tests, p)
		}
		for _, p := range tests {
			for id, obj := range p.info.Uses {
				obj = origin(obj)
				if obj.Pkg() != nil && obj.Pkg() != p.pkg && g.refs[obj] != nil &&
					strings.HasSuffix(reachFset.File(id.Pos()).Name(), "_test.go") {
					roots = append(roots, obj)
				}
			}
			checked = append(checked, p)
		}
	}
	for _, p := range checked {
		for _, tv := range p.info.Types {
			g.addIfaces(tv.Type)
		}
		for _, m := range []map[*ast.Ident]types.Object{p.info.Defs, p.info.Uses} {
			for _, obj := range m {
				if obj != nil {
					g.addIfaces(obj.Type())
				}
			}
		}
	}
	g.addIfaces(types.Universe.Lookup("error").Type())
	for _, di := range dynamicIfaces {
		pkg, err := reachStd.Import(di[0])
		if err != nil {
			return nil, err
		}
		g.addIfaces(pkg.Scope().Lookup(di[1]).Type())
	}

	g.walk(roots)
	names := map[string]types.Object{}
	for obj := range g.refs {
		names[declName(obj)] = obj
	}
	var extra []types.Object
	for name := range allow {
		obj := names[name]
		if obj == nil || g.reached[obj] {
			return nil, fmt.Errorf("allowlisted %s is gone or reached from a root: drop it from the allowlist", name)
		}
		extra = append(extra, obj)
	}
	g.walk(extra)

	var dead []deadDecl
	for obj := range g.refs {
		if !g.reached[obj] {
			dead = append(dead, deadDecl{pos: reachFset.Position(g.pos[obj]), name: declName(obj)})
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return dead, nil
}

// addDecls adds a node per package-level declaration of p and returns the
// roots among them.
func (g *reachGraph) addDecls(p *reachPkg) (roots []types.Object) {
	node := func(id *ast.Ident, syntax ...ast.Node) types.Object {
		obj := p.info.Defs[id]
		refs := []types.Object{}
		for _, n := range syntax {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if use := p.info.Uses[id]; use != nil {
						refs = append(refs, origin(use))
					}
				}
				return true
			})
		}
		g.refs[obj] = refs
		g.pos[obj] = id.Pos()
		return obj
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := node(d.Name, d)
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
					roots = append(roots, obj)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						node(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.Name == "_" {
								continue
							}
							obj := node(id, s)
							if d.Tok == token.VAR && makesCall(p.info, s) {
								roots = append(roots, obj)
							}
						}
					}
				}
			}
		}
	}
	return roots
}

// makesCall reports whether a var spec's initializer calls a function (a
// conversion is not a call).
func makesCall(info *types.Info, s *ast.ValueSpec) bool {
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && !info.Types[c.Fun].IsType() {
				calls = true
			}
			return !calls
		})
	}
	return calls
}

// walk reaches roots and everything they reach.
func (g *reachGraph) walk(roots []types.Object) {
	for _, r := range roots {
		g.reach(r)
	}
	for len(g.queue) > 0 {
		obj := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for _, r := range g.refs[obj] {
			g.reach(r)
		}
		if tn, ok := obj.(*types.TypeName); ok {
			g.reachIfaceMethods(tn)
		}
	}
}

func (g *reachGraph) reach(obj types.Object) {
	if g.reached[obj] || g.refs[obj] == nil {
		return
	}
	g.reached[obj] = true
	g.queue = append(g.queue, obj)
}

// reachIfaceMethods reaches, for each interface tn's type satisfies, the
// methods that satisfy it, promoted ones included.
func (g *reachGraph) reachIfaceMethods(tn *types.TypeName) {
	named, ok := tn.Type().(*types.Named)
	if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
		return
	}
	ptr := types.NewPointer(named)
	for _, iface := range g.ifaces {
		if !types.Implements(ptr, iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
				g.reach(origin(obj))
			}
		}
	}
}

// addIfaces records the non-empty interfaces t is, holds, or takes or
// returns. Every conversion to an interface names its type somewhere the
// type checker records: a variable, a field, or a signature.
func (g *reachGraph) addIfaces(t types.Type) {
	if t == nil || g.seen[t] {
		return
	}
	g.seen[t] = true
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
		// First wins: the module's own packages are seen before their test
		// builds' copies.
		if key := types.TypeString(t, nil); g.ifaces[key] == nil {
			g.ifaces[key] = iface
		}
	}
	switch t := t.(type) {
	case *types.Pointer:
		g.addIfaces(t.Elem())
	case *types.Slice:
		g.addIfaces(t.Elem())
	case *types.Array:
		g.addIfaces(t.Elem())
	case *types.Chan:
		g.addIfaces(t.Elem())
	case *types.Map:
		g.addIfaces(t.Key())
		g.addIfaces(t.Elem())
	case *types.Signature:
		g.addIfaces(t.Params())
		g.addIfaces(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			g.addIfaces(t.At(i).Type())
		}
	}
}

// declName is pkg.Name, or pkg.Type.Method for a method, pkg being the
// last element of the import path.
func declName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if tn := recvType(fn); tn != nil {
			name = tn.Name() + "." + name
		}
	}
	return path.Base(obj.Pkg().Path()) + "." + name
}

// recvType is the named type a method is declared on, or nil for a func.
func recvType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}
