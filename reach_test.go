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
	"slices"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the declarations TestReachable keeps although no root
// reaches them, each with the reason it stays. Each is one more root.
var reachAllow = map[string]string{
	"mbuf.Mbuf.CheckInvariants": "the chain invariant checker the mbuf tests run after every operation",
	"plexus.Extension.Stats":    "extension lifecycle: the per-extension fault counters the rogue tests assert",
	"plexus.ExtensionCtx.After": "extension lifecycle: a timer Unload must cancel",
	"plexus.ExtensionCtx.Every": "extension lifecycle: a ticker Unload must stop",
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

// optionsAllow names the option fields TestOptionsSet keeps although no
// non-test code sets them, each with the reason it stays.
var optionsAllow = map[string]string{
	"plexus.TCPAppOptions.NoSack":     "stands in for a peer that does not offer SACK; the SACK-versus-cumulative recovery tests turn it on",
	"udp.EndpointOptions.Remote":      "Figure 1's connected endpoint: a peer filter in the guard, so other senders cannot snoop its port",
	"udp.EndpointOptions.RemotePort":  "the port half of Remote",
	"plexus.ExtensionSpec.Exports":    "the section 2 protection domains: the interfaces an extension offers other extensions",
	"plexus.ExtensionSpec.Privileged": "the section 2 protection domains: a kernel extension may link kernel-only imports",
	"video.ServerConfig.FPS":          "benchmark/ passes NewServer a zero ServerConfig, so the type and its fields wait for a change to benchmark/",
	"video.ServerConfig.FrameSize":    "kept with FPS",
	"video.ServerConfig.Port":         "kept with FPS",
}

// optionSuffixes are the type-name endings that make an exported struct a
// set of options. The cost tables (osmodel.Costs, event.Costs, netdev.Model)
// are the model's constants, not options, and their names keep them out.
var optionSuffixes = []string{"Options", "Config", "Spec", "Policy"}

// optionsInScope is the number of option fields TestOptionsSet counts. It is
// a ratchet: a change that adds or removes option fields commits the new
// count in the same diff.
const optionsInScope = 78

// TestOptionsSet is the dead-option gate. Every exported field of an
// exported *Options, *Config, *Spec or *Policy struct must get a value from
// non-test code: a composite literal anywhere, or an assignment outside the
// declaring package (one inside it only fills a default). A value copied
// from another option field counts only if that field is set. Delete the
// field a caller never sets, or allowlist it with a reason. The number of
// fields in scope must equal optionsInScope.
func TestOptionsSet(t *testing.T) {
	unset, n, err := unsetOptions(".", "plexus", optionsAllow)
	if err != nil {
		t.Fatal(err)
	}
	if n != optionsInScope {
		t.Errorf("%d option fields in scope, optionsInScope is %d: commit optionsInScope = %d with the change that moved it", n, optionsInScope, n)
	}
	if len(unset) > 0 {
		report := make([]string, len(unset))
		for i, d := range unset {
			report[i] = fmt.Sprintf("%s: %s", d.pos, d.name)
		}
		t.Errorf("%d option fields no non-test code sets; delete them, or allowlist them with a reason:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// TestOptionsSetFixture runs the gate over testdata/reach: two fields set
// by a literal, one only defaulted in its own package, one copied from a set
// field, one copied from the defaulted one, and an embedded field set by a
// literal. Only the defaulted field and its copy may be reported.
func TestOptionsSetFixture(t *testing.T) {
	unset, n, err := unsetOptions(filepath.Join("testdata", "reach"), "reachfix", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unset {
		got = append(got, d.name)
	}
	if want := []string{"a.Options.Depth", "a.Config.Mirror"}; n != 6 || strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unset = %v of %d fields, want %v of 6", got, n, want)
	}
}

// unsetOptions loads the module rooted at dir and returns, in source order,
// the option fields its non-test code never sets, with the number of option
// fields in scope. The names in allow (pkg.Type.Field) count as set, and so
// do the fields copied from them; each must name an unset field.
func unsetOptions(dir, module string, allow map[string]string) ([]deadDecl, int, error) {
	m, err := loadModule(dir, module)
	if err != nil {
		return nil, 0, err
	}
	fields := optionFields(m)
	set := map[*types.Var]bool{}
	copied := map[*types.Var][]*types.Var{} // source field -> fields copied from it
	assign := func(info *types.Info, f *types.Var, value ast.Expr) {
		if _, ok := fields[f]; !ok {
			return
		}
		if sel, ok := ast.Unparen(value).(*ast.SelectorExpr); ok {
			if v, _ := info.Uses[sel.Sel].(*types.Var); fields[v] != "" {
				copied[v] = append(copied[v], f)
				return
			}
		}
		set[f] = true
	}
	for _, p := range m.pkgs {
		for _, file := range p.files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := p.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							f, _ := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							assign(p.info, f, kv.Value)
						} else {
							assign(p.info, st.Field(i), elt)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						f, _ := p.info.Uses[sel.Sel].(*types.Var)
						if f == nil || f.Pkg() == p.pkg {
							continue
						}
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN {
							value = n.Rhs[i]
						}
						assign(p.info, f, value)
					}
				}
				return true
			})
		}
	}
	// reach marks roots set, and every field copied from a set field.
	reach := func(roots []*types.Var) {
		for len(roots) > 0 {
			f := roots[len(roots)-1]
			roots = roots[:len(roots)-1]
			set[f] = true
			for _, to := range copied[f] {
				if !set[to] {
					roots = append(roots, to)
				}
			}
		}
	}
	var roots []*types.Var
	for f := range set {
		roots = append(roots, f)
	}
	reach(roots)

	byName := map[string]*types.Var{}
	for f, name := range fields {
		byName[name] = f
	}
	var extra []*types.Var
	for name := range allow {
		f := byName[name]
		if f == nil || set[f] {
			return nil, 0, fmt.Errorf("allowlisted option %s is gone or set: drop it from the allowlist", name)
		}
		extra = append(extra, f)
	}
	reach(extra)

	var unset []deadDecl
	for f, name := range fields {
		if !set[f] {
			unset = append(unset, deadDecl{pos: reachFset.Position(f.Pos()), name: name})
		}
	}
	sortDecls(unset)
	return unset, len(fields), nil
}

// optionFields maps each option field of m's non-test code to its name,
// pkg.Type.Field: the exported fields of the exported structs whose names
// end in one of optionSuffixes.
func optionFields(m *reachModule) map[*types.Var]string {
	isOptions := func(name string) bool {
		return slices.ContainsFunc(optionSuffixes, func(s string) bool { return strings.HasSuffix(name, s) })
	}
	fields := map[*types.Var]string{}
	for _, p := range m.pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || !isOptions(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = path.Base(p.pkg.Path()) + "." + name + "." + f.Name()
				}
			}
		}
	}
	return fields
}

// TestOptionsRead is TestOptionsSet's converse: every option field must be
// read by non-test code, or setting it changes nothing. What counts as a
// read is fieldReads'. Delete the field nothing reads.
func TestOptionsRead(t *testing.T) {
	unread, n, err := unreadOptions(".", "plexus")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d option fields in scope", n)
	if len(unread) > 0 {
		report := make([]string, len(unread))
		for i, d := range unread {
			report[i] = fmt.Sprintf("%s: %s", d.pos, d.name)
		}
		t.Errorf("%d option fields no non-test code reads; delete them:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// TestOptionsReadFixture runs the gate over testdata/reach: main sets
// Options.Label and nothing reads it, and main reads Spec's promoted Width
// and Mirror, which reads its embedded Config. Only Label may be reported.
func TestOptionsReadFixture(t *testing.T) {
	unread, n, err := unreadOptions(filepath.Join("testdata", "reach"), "reachfix")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unread {
		got = append(got, d.name)
	}
	if want := "a.Options.Label"; n != 6 || len(got) != 1 || got[0] != want {
		t.Fatalf("unread = %v of %d fields, want [%s] of 6", got, n, want)
	}
}

// unreadOptions loads the module rooted at dir and returns, in source order,
// the option fields its non-test code never reads, with the number of
// option fields in scope.
func unreadOptions(dir, module string) ([]deadDecl, int, error) {
	m, err := loadModule(dir, module)
	if err != nil {
		return nil, 0, err
	}
	fields := optionFields(m)
	return unreadOf(fields, fieldReads(m.pkgs)), len(fields), nil
}

// fieldsAllow names the fields TestFieldsRead keeps although nothing reads
// them, each with the reason it stays.
var fieldsAllow = map[string]string{
	"benchmark.report.values": "benchmark/ keeps what a run produced beside the declared metrics; it waits for a change to benchmark/",
}

// TestFieldsRead is the dead-state gate. Every unexported field of a named
// struct in non-test code must be read by non-test code, as fieldReads
// counts reads. A field only written, or only accumulated, is state
// nothing consults. The exported fields of a struct whose name ends in
// Stats are held to the same rule, except that a read from test code
// counts: a counter is a test oracle. Delete what it reports, or allowlist
// it with a reason.
func TestFieldsRead(t *testing.T) {
	unread, err := unreadFields(".", "plexus", fieldsAllow)
	if err != nil {
		t.Fatal(err)
	}
	if len(unread) > 0 {
		report := make([]string, len(unread))
		for i, d := range unread {
			report[i] = fmt.Sprintf("%s: %s", d.pos, d.name)
		}
		t.Errorf("%d fields nothing reads; delete them, or allowlist them with a reason:\n\t%s",
			len(report), strings.Join(report, "\n\t"))
	}
}

// TestFieldsReadFixture runs the gate over testdata/reach: Counter has one
// field nothing reads, one only accumulated with +=, and one read only
// through its struct's use as a map key; of Stats's counters, main reads
// one, only a test reads another and nothing reads the third. Only
// Counter's first two and Stats's third may be reported.
func TestFieldsReadFixture(t *testing.T) {
	unread, err := unreadFields(filepath.Join("testdata", "reach"), "reachfix", nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range unread {
		got = append(got, d.name)
	}
	if want := []string{"a.Counter.note", "a.Counter.total", "a.Stats.Dropped"}; strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unread = %v, want %v", got, want)
	}
}

// unreadFields loads the module rooted at dir and returns, in source order,
// the unexported fields of its non-test named structs that its non-test
// code never reads, and the exported fields of its *Stats structs that
// neither its non-test nor its test code reads. The names in allow
// (pkg.Type.field) count as read; each must name an unread field.
func unreadFields(dir, module string, allow map[string]string) ([]deadDecl, error) {
	m, err := loadModule(dir, module)
	if err != nil {
		return nil, err
	}
	fields := map[*types.Var]string{}
	for _, p := range m.pkgs {
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			counters := strings.HasSuffix(tn.Name(), "Stats")
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); (!f.Exported() || counters) && f.Name() != "_" {
					fields[f] = path.Base(p.pkg.Path()) + "." + tn.Name() + "." + f.Name()
				}
			}
		}
	}
	read := fieldReads(m.pkgs)
	// A test build type-checks its package's files anew, so its fields are
	// other objects: match a test's reads to the declaration's position.
	testRead := map[token.Pos]bool{}
	for f := range fieldReads(m.tests) {
		testRead[f.Pos()] = true
	}
	for f := range fields {
		if f.Exported() && testRead[f.Pos()] {
			read[f] = true
		}
	}
	byName := map[string]*types.Var{}
	for f, name := range fields {
		byName[name] = f
	}
	for name := range allow {
		f := byName[name]
		if f == nil || read[f] {
			return nil, fmt.Errorf("allowlisted field %s is gone or read: drop it from the allowlist", name)
		}
		read[f] = true
	}
	return unreadOf(fields, read), nil
}

// unreadOf returns, in source order, the fields not in read.
func unreadOf(fields map[*types.Var]string, read map[*types.Var]bool) []deadDecl {
	var unread []deadDecl
	for f, name := range fields {
		if !read[f] {
			unread = append(unread, deadDecl{pos: reachFset.Position(f.Pos()), name: name})
		}
	}
	sortDecls(unread)
	return unread
}

// fieldReads returns the struct fields the code of pkgs reads. A read is a
// selector that is not the whole left side of =, op= or ++/--; an embedded
// field is read when a field or method promoted through it is used; and a
// struct compared with == or != or used as a map key has every field read,
// the fields of its struct-valued fields included.
func fieldReads(pkgs []*reachPkg) map[*types.Var]bool {
	read := map[*types.Var]bool{}
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Array:
			readAll(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i)
				read[f.Origin()] = true
				readAll(f.Type())
			}
		}
	}
	for _, p := range pkgs {
		for _, tv := range p.info.Types {
			if mt, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(mt.Key())
			}
		}
		for _, file := range p.files {
			written := map[ast.Expr]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							written[ast.Unparen(lhs)] = true
						}
					}
				case *ast.IncDecStmt:
					written[ast.Unparen(n.X)] = true
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(p.info.Types[n.X].Type)
						readAll(p.info.Types[n.Y].Type)
					}
				case *ast.SelectorExpr:
					sel := p.info.Selections[n]
					if sel == nil {
						break // a qualified identifier
					}
					// The embedded fields a promoted selector passes through.
					t := sel.Recv()
					for _, i := range sel.Index()[:len(sel.Index())-1] {
						if ptr, ok := t.Underlying().(*types.Pointer); ok {
							t = ptr.Elem()
						}
						f := t.Underlying().(*types.Struct).Field(i)
						read[f.Origin()] = true
						t = f.Type()
					}
					if f, ok := sel.Obj().(*types.Var); ok && !written[n] {
						read[f.Origin()] = true
					}
				}
				return true
			})
		}
	}
	return read
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
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
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

// A reachModule is a module type-checked from source: the non-test build
// of each package, then its in-package and external test builds.
type reachModule struct {
	pkgs  []*reachPkg // in import-path order
	tests []*reachPkg
}

// reachModules caches loadModule by directory, so the gates in this file
// type-check the module once per test binary.
var reachModules = map[string]*reachModule{}

// loadModule loads the module rooted at dir, whose import path is module.
func loadModule(dir, module string) (*reachModule, error) {
	if m := reachModules[dir]; m != nil {
		return m, nil
	}
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

	m := &reachModule{}
	for _, ip := range paths {
		if len(l.dirs[ip].GoFiles) == 0 {
			continue
		}
		p, err := l.canonical(ip)
		if err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, p)
	}
	for _, ip := range paths {
		bp := l.dirs[ip]
		if len(bp.TestGoFiles) > 0 {
			p, err := l.check(ip, bp.Dir, bp.GoFiles, bp.TestGoFiles)
			if err != nil {
				return nil, err
			}
			m.tests = append(m.tests, p)
		}
		if len(bp.XTestGoFiles) > 0 {
			p, err := l.check(ip+"_test", bp.Dir, bp.XTestGoFiles)
			if err != nil {
				return nil, err
			}
			m.tests = append(m.tests, p)
		}
	}
	reachModules[dir] = m
	return m, nil
}

// unreachable loads the module rooted at dir, whose import path is module,
// and returns its unreachable declarations in source order. The names in
// allow are extra roots; each must name a declaration no other root reaches.
func unreachable(dir, module string, allow map[string]string) ([]deadDecl, error) {
	m, err := loadModule(dir, module)
	if err != nil {
		return nil, err
	}
	g := &reachGraph{
		refs:    map[types.Object][]types.Object{},
		pos:     map[types.Object]token.Pos{},
		ifaces:  map[string]*types.Interface{},
		seen:    map[types.Type]bool{},
		reached: map[types.Object]bool{},
	}
	var roots []types.Object
	for _, p := range m.pkgs {
		roots = append(roots, g.addDecls(p)...)
	}
	// Tests: a use from another package's test file is a root.
	for _, p := range m.tests {
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if obj.Pkg() != nil && obj.Pkg() != p.pkg && g.refs[obj] != nil &&
				strings.HasSuffix(reachFset.File(id.Pos()).Name(), "_test.go") {
				roots = append(roots, obj)
			}
		}
	}
	for _, p := range append(m.pkgs[:len(m.pkgs):len(m.pkgs)], m.tests...) {
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
	sortDecls(dead)
	return dead, nil
}

// sortDecls puts ds in source order.
func sortDecls(ds []deadDecl) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].pos, ds[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
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
