package clasp

// The reachability rule (DESIGN.md §17): every package-level declaration and
// method of the module's non-test code must be reachable from a program. The
// roots are func main and every init of the main packages, and every
// declaration of a nested module (bench/, frozen to this rule, so whatever
// it calls is live). This facade package is a library like any other: an
// export no program calls is dead. The graph is def→use over type-checked
// identifiers, exported and unexported alike, so a declaration reached only
// from dead code is dead too — the case a by-name scan misses. A method is
// live when reachable code selects it, or when its receiver type is live and
// a live interface the type implements names it.
//
// The field rule carries this one level down: every exported, non-embedded
// field of a named struct type declared outside bench/ must be set by a
// program — test writes do not count, and neither does the defaulting idiom
// (see markWrites). A field nothing sets is a constant dressed as a knob.
// The only escape is reachAllowed below.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The two reasons a declaration no program reaches may stay.
const (
	// reachReference: an implementation tests hold product code to bit for
	// bit, shared by tests of more than one package.
	reachReference = "reference"
	// reachObserve: the only way a test in another package can read what
	// the product wrote or did.
	reachObserve = "observe"
	// reachSeam (fields only): a test sets it to a value no program uses, to
	// check behaviour the product keeps.
	reachSeam = "seam"
)

var reachReasons = []string{reachReference, reachObserve, reachSeam}

// reachAllowed is the allow-list: declaration or field → reason. What an
// entry alone reaches rides along with it, and an entry naming a type keeps
// the type's methods. An entry that is reachable (for a field: that a
// program sets) without being listed, or names nothing, fails the test, so
// the list can only shrink.
var reachAllowed = map[string]string{
	// Held against Pinger in netsim and against the scan in
	// speedchecker/reference_test.go; the uncached Measure reference.
	"internal/netsim.Sim.PingRTT":       reachReference,
	"internal/netsim.Sim.pathBandwidth": reachReference,
	// Numeric oracle for the hash distributions in netsim's tests.
	"internal/stats.Welford": reachReference,

	// How orchestrator tests see uploads and teardown in the simulated cloud.
	"internal/cloud.Bucket.Get":       reachObserve,
	"internal/cloud.Bucket.List":      reachObserve,
	"internal/cloud.Platform.ListVMs": reachObserve,
	// The record count a checkpoint's sidecar claims.
	"internal/checkpoint.Checkpoint.NumRecords": reachObserve,
	// Ground truth of the topology fixture.
	"internal/topology.Topology.CloudNeighbors": reachObserve,
	"internal/topology.Topology.RouterAliases":  reachObserve,
	// Reads back the captures campaigns upload (and with it pcap's reader).
	"internal/flowstats.Analyze": reachObserve,

	// Fields the program leaves at their default, set by tests only.
	// Short transfers keep synthesized captures small (orchestrator's
	// runFaultCampaign, TestParallelMatchesSequential and others).
	"internal/orchestrator.Config.TestDurationSec": reachSeam,
	// The D5 ablation (TestFixedOrderAblation, BenchmarkAblationTestOrder).
	"internal/orchestrator.Config.FixedOrder": reachSeam,
	// A small scan per test (quickParams, TestRunPreliminaryMatchesPerSampleReference,
	// TestDifferentialBasedSelection).
	"internal/speedchecker.Params.SamplesPerVP": reachSeam,
	// Lossless traces (TestClassicModeCanOscillate, TestTraceToProbeTarget)
	// and heavy loss (TestResponseLossProducesSilentHops,
	// TestTraceMatchesPerTTLReference).
	"internal/traceroute.Options.ResponseLoss": reachSeam,
	// Several transactions in one flow (TestTransactionsIdentified).
	"internal/flowstats.SynthConfig.Requests": reachSeam,
	// A private registry and a fake clock (TestPipelineDeterministicSelfStore,
	// TestPipelineRetention, TestIntrospectionEndpoints).
	"internal/telemetry.PipelineConfig.Registry": reachSeam,
	"internal/telemetry.PipelineConfig.Now":      reachSeam,
	"internal/telemetry.Introspection.Registry":  reachSeam,
	// The first-read delay (TestLatencyOption).
	"internal/shaper.Options.Latency": reachSeam,
}

// reachStdIfaces are the std interfaces through which std code calls module
// methods; the checker cannot see those calls, so their method sets count as
// always selected. Module interfaces need no list: they are read from the
// source and count while the declaration that writes them is live. The
// optional upgrades io.Copy probes for (io.WriterTo, io.ReaderFrom) are
// absent on purpose: a serialiser is reached by calling it, and listing them
// would keep every WriteTo-shaped method alive with no caller. A method std
// calls through an interface not listed here shows up as a false alarm; add
// the interface.
var reachStdIfaces = [][2]string{
	{"", "error"}, {"fmt", "Stringer"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"sort", "Interface"}, {"flag", "Value"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"net", "Conn"}, {"net", "Listener"},
	{"net/http", "Handler"}, {"net/http", "ResponseWriter"}, {"net/http", "Hijacker"}, {"net/http", "Flusher"},
}

// reachDecl is one package-level declaration or method.
type reachDecl struct {
	name  string // module-relative dir + "." + [Type.]Name
	pos   token.Position
	lines int            // code lines: not blank, not comment-only
	uses  []types.Object // every object its source mentions
	root  bool
}

// reachImpl says: once typ and owner are both live, methods are.
type reachImpl struct {
	typ, owner types.Object // owner nil: a std interface, always live
	methods    []types.Object
}

type reachGraph struct {
	decls   map[types.Object]*reachDecl
	fields  map[*types.Var]*reachDecl // the exported fields the field rule checks
	set     map[*types.Var]bool       // fields a program writes
	byName  map[string]types.Object
	methods map[types.Object][]types.Object // type → its declared methods
	byType  map[types.Object][]*reachImpl
	byOwner map[types.Object][]*reachImpl
}

// reachFset and reachStd are shared by every load: the source importer
// caches the std packages it has type-checked.
var (
	reachFset = token.NewFileSet()
	reachStd  = importer.ForCompiler(reachFset, "source", nil)
)

// reachLoader type-checks module packages from source on demand and std
// through go/importer's source importer.
type reachLoader struct {
	root, mod string
	info      *types.Info
	pkgs      map[string]*types.Package
	files     map[*types.Package][]*ast.File
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return reachStd.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, strings.TrimPrefix(path, l.mod))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(reachFset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, reachFset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[p] = p, files
	return p, nil
}

// buildReachGraph loads every non-test package under root (a module
// directory) and returns its def→use graph.
func buildReachGraph(root string) (*reachGraph, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(string(gomod))
	if len(fields) < 2 || fields[0] != "module" {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	// The source importer reads build.Default; without cgo it type-checks
	// net and os/user from their pure-Go files instead of running cgo.
	defer func(v bool) { build.Default.CgoEnabled = v }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	l := &reachLoader{
		root: root, mod: fields[1],
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
	}

	nested := map[*types.Package]bool{} // packages of a nested module: roots whole
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); path != root && (n[0] == '.' || n[0] == '_' || n == "testdata") {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err != nil || len(bp.GoFiles) == 0 {
			return nil // no non-test Go files here
		}
		rel, _ := filepath.Rel(root, path)
		p, err := l.Import(strings.TrimSuffix(l.mod+"/"+filepath.ToSlash(rel), "/."))
		if err != nil {
			return err
		}
		for dir := path; dir != root; dir = filepath.Dir(dir) {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				nested[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	g := &reachGraph{
		decls: map[types.Object]*reachDecl{}, byName: map[string]types.Object{}, methods: map[types.Object][]types.Object{},
		byType: map[types.Object][]*reachImpl{}, byOwner: map[types.Object][]*reachImpl{},
		fields: map[*types.Var]*reachDecl{}, set: map[*types.Var]bool{},
	}
	type iface struct {
		owner types.Object
		t     *types.Interface
	}
	var ifaces []iface
	for _, std := range reachStdIfaces {
		scope := types.Universe
		if std[0] != "" {
			p, err := reachStd.Import(std[0])
			if err != nil {
				return nil, err
			}
			scope = p.Scope()
		}
		ifaces = append(ifaces, iface{nil, scope.Lookup(std[1]).Type().Underlying().(*types.Interface)})
	}
	src := map[string][]string{} // file → lines
	for _, p := range l.pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path(), l.mod), "/")
		if rel == "" {
			rel = p.Name()
		}
		// add registers the objects one declaration defines; node is the
		// source they share.
		add := func(node ast.Node, idents ...*ast.Ident) {
			var uses []types.Object
			var written []*types.Interface
			ast.Inspect(node, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					switch o := l.info.Uses[n].(type) {
					case *types.Func:
						uses = append(uses, o.Origin())
					case *types.Var:
						uses = append(uses, o.Origin())
					case *types.TypeName, *types.Const:
						uses = append(uses, o)
					}
				case *ast.InterfaceType:
					if t, ok := l.info.TypeOf(n).(*types.Interface); ok && t.NumMethods() > 0 {
						written = append(written, t)
					}
				}
				return true
			})
			pos, end := reachFset.Position(node.Pos()), reachFset.Position(node.End())
			if src[pos.Filename] == nil {
				b, _ := os.ReadFile(pos.Filename)
				src[pos.Filename] = strings.Split(string(b), "\n")
			}
			lines := 0
			for _, s := range src[pos.Filename][pos.Line-1 : end.Line] {
				if s = strings.TrimSpace(s); s != "" && !strings.HasPrefix(s, "//") {
					lines++
				}
			}
			if fn, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = filepath.ToSlash(fn)
			}
			for _, id := range idents {
				obj := l.info.Defs[id]
				if obj == nil || id.Name == "_" {
					continue
				}
				name := id.Name
				if f, ok := obj.(*types.Func); ok {
					if recv := f.Type().(*types.Signature).Recv(); recv != nil {
						t := recv.Type()
						if pt, ok := t.(*types.Pointer); ok {
							t = pt.Elem()
						}
						tn := t.(*types.Named).Obj()
						name = tn.Name() + "." + name
						g.methods[tn] = append(g.methods[tn], obj)
					}
				}
				d := &reachDecl{name: rel + "." + name, pos: pos, lines: lines, uses: uses}
				d.root = nested[p] || id.Name == "init" || p.Name() == "main" && name == "main"
				g.decls[obj], g.byName[d.name] = d, obj
				for _, t := range written {
					ifaces = append(ifaces, iface{obj, t})
				}
				lines = 0 // names sharing one spec: count its lines once
			}
		}
		for _, f := range l.files[p] {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					add(decl, decl.Name)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						var node ast.Node = decl
						if decl.Lparen.IsValid() {
							node = spec
						}
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(node, spec.Name)
							if st, ok := spec.Type.(*ast.StructType); ok && !nested[p] {
								for _, f := range st.Fields.List {
									for _, id := range f.Names {
										if id.IsExported() {
											pos := reachFset.Position(id.Pos())
											pos.Filename = g.decls[l.info.Defs[spec.Name]].pos.Filename
											g.fields[l.info.Defs[id].(*types.Var)] = &reachDecl{name: rel + "." + spec.Name.Name + "." + id.Name, pos: pos}
										}
									}
								}
							}
						case *ast.ValueSpec:
							add(node, spec.Names...)
						}
					}
				}
			}
		}
	}

	for _, p := range l.pkgs {
		for _, f := range l.files[p] {
			g.markWrites(l.info, f)
		}
	}

	// Which concrete types implement which interfaces, and through which
	// declared methods (a promoted method resolves to the embedded type's).
	for typ := range g.decls {
		tn, ok := typ.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		mset := types.NewMethodSet(ptr)
		for _, i := range ifaces {
			if !types.Implements(ptr, i.t) {
				continue
			}
			impl := &reachImpl{typ: typ, owner: i.owner}
			for k := 0; k < i.t.NumMethods(); k++ {
				m := i.t.Method(k)
				if f, ok := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					impl.methods = append(impl.methods, f.Origin())
				}
			}
			g.byType[typ] = append(g.byType[typ], impl)
			if i.owner != nil {
				g.byOwner[i.owner] = append(g.byOwner[i.owner], impl)
			}
		}
	}
	return g, nil
}

// markWrites records in g.set every field f writes (DESIGN.md §17): a key of
// a keyed composite literal or any field of an unkeyed one; every field on
// the selector/index chain of an assignment's target, of ++/--, of &x.F and
// of a pointer-method call on x.F; and every exported field reachable through
// a pointer passed where an interface is expected (json.Unmarshal,
// Decoder.Decode). A write in the body of an if that tests the same field for
// its zero value is the defaulting idiom and does not count.
func (g *reachGraph) markWrites(info *types.Info, f *ast.File) {
	var ifs []*ast.IfStmt // the if statements whose body encloses the node
	chain := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() && !reachDefaulted(info, ifs, v) {
					g.set[v.Origin()] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, inspect)
			}
			ast.Inspect(n.Cond, inspect)
			ifs = append(ifs, n)
			ast.Inspect(n.Body, inspect)
			ifs = ifs[:len(ifs)-1]
			if n.Else != nil {
				ast.Inspect(n.Else, inspect)
			}
			return false
		case *ast.FuncLit:
			saved := ifs
			ifs = nil
			ast.Inspect(n.Body, inspect)
			ifs = saved
			return false
		case *ast.CompositeLit:
			st, ok := reachStruct(info.TypeOf(n))
			for _, e := range n.Elts {
				if kv, isKV := e.(*ast.KeyValueExpr); isKV {
					if id, isID := kv.Key.(*ast.Ident); isID {
						if v, isVar := info.Uses[id].(*types.Var); isVar && v.IsField() {
							g.set[v.Origin()] = true
						}
					}
				} else if ok {
					for i := 0; i < st.NumFields(); i++ {
						g.set[st.Field(i).Origin()] = true
					}
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				chain(e)
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					_, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
					_, ptrOperand := info.TypeOf(sel.X).Underlying().(*types.Pointer)
					if ptrRecv && !ptrOperand {
						chain(sel.X)
					}
				}
			}
			sig, ok := info.TypeOf(n.Fun).(*types.Signature)
			if !ok {
				return true // a conversion or a builtin
			}
			for i, arg := range n.Args {
				var pt types.Type
				switch params := sig.Params(); {
				case sig.Variadic() && i >= params.Len()-1:
					pt = params.At(params.Len() - 1).Type()
					if !n.Ellipsis.IsValid() {
						pt = pt.(*types.Slice).Elem()
					}
				case i < params.Len():
					pt = params.At(i).Type()
				}
				if pt != nil && types.IsInterface(pt) {
					g.markReflected(info.TypeOf(arg), false, map[types.Type]bool{})
				}
			}
		}
		return true
	}
	ast.Inspect(f, inspect)
}

// markReflected marks every exported field reflection can set through a
// value of type t: behind a pointer or a slice, inside a slice, map, array
// or struct. A field tagged json:"-" is out of a decoder's reach.
func (g *reachGraph) markReflected(t types.Type, settable bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		g.markReflected(u.Elem(), true, seen)
	case *types.Slice:
		g.markReflected(u.Elem(), true, seen)
	case *types.Array:
		g.markReflected(u.Elem(), settable, seen)
	case *types.Map:
		g.markReflected(u.Elem(), false, seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() && reflect.StructTag(u.Tag(i)).Get("json") != "-" {
				if settable {
					g.set[f.Origin()] = true
				}
				g.markReflected(f.Type(), settable, seen)
			}
		}
	}
}

// reachStruct returns the struct a composite literal of type t builds.
func reachStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// reachDefaulted reports whether one of the enclosing ifs tests field v for
// its zero value: == 0, <= 0, < 1, == nil, == "" or .IsZero().
func reachDefaulted(info *types.Info, ifs []*ast.IfStmt, v *types.Var) bool {
	is := func(e ast.Expr) bool {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		return ok && info.Uses[sel.Sel] == v
	}
	for _, s := range ifs {
		found := false
		ast.Inspect(s.Cond, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				lit, _ := ast.Unparen(n.Y).(*ast.BasicLit)
				id, _ := ast.Unparen(n.Y).(*ast.Ident)
				zero := lit != nil && (n.Op == token.EQL && (lit.Value == "0" || lit.Value == `""`) ||
					n.Op == token.LEQ && lit.Value == "0" || n.Op == token.LSS && lit.Value == "1") ||
					id != nil && id.Name == "nil" && n.Op == token.EQL
				found = found || zero && is(n.X)
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "IsZero" && len(n.Args) == 0 {
					found = found || is(sel.X)
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// walk returns what is reachable from the root declarations plus extra.
func (g *reachGraph) walk(extra ...types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(o types.Object) {
		if g.decls[o] != nil && !live[o] {
			live[o] = true
			work = append(work, o)
		}
	}
	for o, d := range g.decls {
		if d.root {
			mark(o)
		}
	}
	for _, o := range extra {
		mark(o)
	}
	for len(work) > 0 {
		o := work[len(work)-1]
		work = work[:len(work)-1]
		for _, u := range g.decls[o].uses {
			mark(u)
		}
		for _, list := range [][]*reachImpl{g.byType[o], g.byOwner[o]} {
			for _, impl := range list {
				if live[impl.typ] && (impl.owner == nil || live[impl.owner]) {
					for _, m := range impl.methods {
						mark(m)
					}
				}
			}
		}
	}
	return live
}

// reachFinding is one line of the checker's verdict.
type reachFinding struct {
	decl *reachDecl
	why  string // "" = unreachable; otherwise what is wrong with its allow-list entry
}

// checkReach applies the rule to the module at root. It returns the
// findings that fail it and, per reason, the code lines the allow-list
// keeps (entries plus what only they reach).
func checkReach(root string, allowed map[string]string) (findings []reachFinding, kept map[string]int, err error) {
	g, err := buildReachGraph(root)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, 0, len(allowed))
	for name := range allowed {
		names = append(names, name)
	}
	sort.Strings(names)
	fieldByName := map[string]*types.Var{}
	for v, d := range g.fields {
		fieldByName[d.name] = v
	}
	var entries [][]types.Object // each entry with the methods it keeps
	for _, name := range names {
		obj, reason := g.byName[name], allowed[name]
		if reason == reachSeam {
			switch v := fieldByName[name]; {
			case v == nil:
				findings = append(findings, reachFinding{&reachDecl{name: name}, "allow-listed but gone"})
			case g.set[v]:
				findings = append(findings, reachFinding{g.fields[v], "allow-listed but a program sets it"})
			}
			continue
		}
		switch {
		case obj == nil:
			findings = append(findings, reachFinding{&reachDecl{name: name}, "allow-listed but gone"})
			continue
		case !slices.Contains(reachReasons, reason):
			findings = append(findings, reachFinding{g.decls[obj], fmt.Sprintf("allow-listed with reason %q, not one of %v", reason, reachReasons)})
		}
		entries = append(entries, append([]types.Object{obj}, g.methods[obj]...))
	}
	for i, e := range entries {
		var others []types.Object
		for j, o := range entries {
			if j != i {
				others = append(others, o...)
			}
		}
		if g.walk(others...)[e[0]] {
			findings = append(findings, reachFinding{g.decls[e[0]], "allow-listed but reachable without its entry"})
		}
	}
	kept = map[string]int{}
	live := g.walk()
	for _, reason := range reachReasons {
		var roots []types.Object
		for _, e := range entries {
			if allowed[g.decls[e[0]].name] == reason {
				roots = append(roots, e...)
			}
		}
		for obj := range g.walk(roots...) {
			if !live[obj] {
				live[obj] = true
				kept[reason] += g.decls[obj].lines
			}
		}
	}
	for obj, d := range g.decls {
		if !live[obj] {
			findings = append(findings, reachFinding{decl: d})
		}
	}
	for v, d := range g.fields {
		if !g.set[v] && allowed[d.name] != reachSeam {
			findings = append(findings, reachFinding{d, "no program sets it"})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].decl, findings[j].decl
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.name < b.name
	})
	return findings, kept, nil
}

// TestReachability is the rule. With -v it prints what the allow-list
// keeps, by reason, in code lines (seam: the fields).
func TestReachability(t *testing.T) {
	findings, kept, err := checkReach(".", reachAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range reachReasons {
		var names []string
		for name, r := range reachAllowed {
			if r == reason {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		what := fmt.Sprintf("keep %d code lines", kept[reason])
		if reason == reachSeam {
			what = "are fields only tests set"
		}
		t.Logf("%s: %d entries %s\n\t%s", reason, len(names), what, strings.Join(names, "\n\t"))
	}
	total := 0
	for _, f := range findings {
		if f.why != "" {
			t.Errorf("%s:%d %s: %s", f.decl.pos.Filename, f.decl.pos.Line, f.decl.name, f.why)
			continue
		}
		total += f.decl.lines
		t.Errorf("%s:%d %s (%d lines)", f.decl.pos.Filename, f.decl.pos.Line, f.decl.name, f.decl.lines)
	}
	if total > 0 {
		t.Errorf("%d code lines are reachable from no program: delete them, or give each a reason in reachAllowed", total)
	}
}

// TestReachabilityRuleBites runs the checker on two modules. The first is
// shaped like this one: a library package at the module's root path, with
// one export the program calls and one it does not, and a program under
// cmd/ with one function reached from main, one reached only from a dead
// function — the transitive case a by-name scan misses, since the name is
// referenced — and one method live only through an interface. The checker
// must report the unused export and the dead pair and nothing else, and
// must reject every kind of stale allow-list entry. The second holds the
// field rule: a field nothing sets, one set only by its defaulting if and
// one only a _test.go file sets each fail it, a stale seam entry fails, and
// fields a program assigns, writes in a literal, binds to a flag or decodes
// from JSON pass.
func TestReachabilityRuleBites(t *testing.T) {
	for _, fx := range []struct {
		files map[string]string
		cases []struct {
			allowed map[string]string
			want    string
		}
	}{{
		files: map[string]string{
			"go.mod":       "module fixture\n\ngo 1.22\n",
			"lib.go":       "package fixture\n\nfunc Used() {}\n\nfunc Unused() {}\n",
			"cmd/main.go":  "package main\n\nimport \"fixture\"\n\nfunc main() {\n\treached()\n\tfixture.Used()\n\tvar s shape = square{}\n\t_ = s.area()\n}\n\nfunc reached() {}\n",
			"cmd/dead.go":  "package main\n\nfunc dead() { onlyFromDead() }\n\nfunc onlyFromDead() {}\n",
			"cmd/iface.go": "package main\n\ntype shape interface{ area() int }\n\ntype square struct{}\n\nfunc (square) area() int { return 1 }\n",
		},
		cases: []struct {
			allowed map[string]string
			want    string
		}{
			{nil, "cmd.dead: | cmd.onlyFromDead: | fixture.Unused:"},
			{map[string]string{"cmd.dead": reachReference, "fixture.Unused": reachObserve}, ""},
			{map[string]string{"cmd.onlyFromDead": reachObserve}, "cmd.dead: | fixture.Unused:"},
			{map[string]string{"cmd.dead": reachReference, "cmd.onlyFromDead": reachReference}, "cmd.onlyFromDead: allow-listed but reachable without its entry | fixture.Unused:"},
			{map[string]string{"cmd.dead": reachReference, "cmd.reached": reachObserve}, "cmd.reached: allow-listed but reachable without its entry | fixture.Unused:"},
			{map[string]string{"cmd.dead": reachReference, "fixture.Used": reachObserve}, "fixture.Used: allow-listed but reachable without its entry | fixture.Unused:"},
			{map[string]string{"cmd.dead": reachReference, "cmd.gone": reachObserve}, "cmd.gone: allow-listed but gone | fixture.Unused:"},
			{map[string]string{"cmd.dead": "handy"}, `cmd.dead: allow-listed with reason "handy", not one of [reference observe seam] | cmd.dead: | cmd.onlyFromDead: | fixture.Unused:`},
		},
	}, {
		files: map[string]string{
			"go.mod": "module knobs\n\ngo 1.22\n",
			"lib.go": "package knobs\n\ntype Config struct {\n\tNever     int\n\tDefaulted int\n\tTestOnly  int\n\tAssigned  int\n\tKeyed     int\n\tFlagged   int\n\tunset     int\n}\n\n" +
				"type Spec struct{ Decoded string }\n\n" +
				"func (c *Config) Fill() {\n\tif c.Defaulted == 0 {\n\t\tc.Defaulted = 5\n\t}\n}\n",
			"lib_test.go": "package knobs\n\nimport \"testing\"\n\nfunc TestSet(t *testing.T) { _ = Config{TestOnly: 1} }\n",
			"cmd/main.go": "package main\n\nimport (\n\t\"encoding/json\"\n\t\"flag\"\n\n\t\"knobs\"\n)\n\n" +
				"func main() {\n\tc := knobs.Config{Keyed: 1}\n\tc.Assigned = 2\n\tflag.IntVar(&c.Flagged, \"n\", 0, \"\")\n\tc.Fill()\n\tvar s knobs.Spec\n\t_ = json.Unmarshal([]byte(`{}`), &s)\n}\n",
		},
		cases: []struct {
			allowed map[string]string
			want    string
		}{
			{nil, "knobs.Config.Never: no program sets it | knobs.Config.Defaulted: no program sets it | knobs.Config.TestOnly: no program sets it"},
			{map[string]string{"knobs.Config.Never": reachSeam, "knobs.Config.Defaulted": reachSeam, "knobs.Config.TestOnly": reachSeam}, ""},
			{map[string]string{"knobs.Config.Never": reachSeam, "knobs.Config.Defaulted": reachSeam, "knobs.Config.TestOnly": reachSeam, "knobs.Config.Assigned": reachSeam},
				"knobs.Config.Assigned: allow-listed but a program sets it"},
			{map[string]string{"knobs.Config.Never": reachSeam, "knobs.Config.Defaulted": reachSeam, "knobs.Config.TestOnly": reachSeam, "knobs.Config.Gone": reachSeam},
				"knobs.Config.Gone: allow-listed but gone"},
		},
	}} {
		dir := t.TempDir()
		for name, src := range fx.files {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range fx.cases {
			findings, _, err := checkReach(dir, tc.allowed)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, f := range findings {
				got = append(got, f.decl.name+":"+strings.TrimRight(" "+f.why, " "))
			}
			if s := strings.Join(got, " | "); s != tc.want {
				t.Errorf("allow-list %v: findings %q, want %q", tc.allowed, s, tc.want)
			}
		}
	}
}
