package clasp

// The reachability rule (DESIGN.md §17): every package-level declaration and
// method of the module's non-test code must be reachable from a program. The
// roots are func main and every init of the main packages. A nested module
// (bench/) is type-checked too but is no root: what only it keeps needs a
// bench entry, and the entry fails once bench/ stops calling it. This facade
// package is a library like any other: an export no program calls is dead. The graph is def→use over type-checked
// identifiers, exported and unexported alike, so a declaration reached only
// from dead code is dead too — the case a by-name scan misses. A method is
// live when reachable code selects it, or when its receiver type is live and
// a live interface the type implements names it.
//
// The field rules carry this one level down. Every exported, non-embedded
// field of a named struct type declared outside bench/ must be set by a
// program — test writes do not count, and neither does the defaulting idiom
// (see markWrites). A field nothing sets is a constant dressed as a knob.
// Every non-embedded field, exported or not, of a type the product reaches
// must also be read by the product — program-reached or reference code (see
// reachReads): a field only tests read is write-only state.
//
// The signature legs carry it into every function programs reach (see
// checkSigs): each result needs a product call site that keeps it and may
// not be the same constant at every return, and each parameter must be read
// and be given two values across the product's call sites.
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
	// the product wrote or did (for a field: only tests read it).
	reachObserve = "observe"
	// reachSeam (fields and parameters): a test sets it to a value no
	// program uses, to check behaviour the product keeps.
	reachSeam = "seam"
	// reachBench: only a bench/ site keeps it — a declaration bench calls, a
	// result only bench reads, a parameter only bench gives a second value.
	// bench/ changes only with its own records, so these wait for it.
	reachBench = "bench"
)

var reachReasons = []string{reachReference, reachObserve, reachSeam, reachBench}

// reachAllowed is the allow-list: declaration or field → reason. What an
// entry alone reaches rides along with it, and an entry naming a type keeps
// the type's methods. An entry that is reachable (for a seam field: that a
// program sets; for an observe field: that a program reads) without being
// listed, or names nothing, fails the test, so the list can only shrink.
var reachAllowed = map[string]string{
	// Held against Pinger in netsim and against the scan in
	// speedchecker/reference_test.go; the uncached Measure reference.
	"internal/netsim.Sim.PingRTT": reachReference,
	// The sorting percentile PercentileInPlace is held to bit for bit, and
	// the scan in speedchecker/reference_test.go and the root's tests with it.
	"internal/stats.Percentile": reachReference,

	// How orchestrator tests see uploads and teardown in the simulated cloud.
	"internal/cloud.Bucket.Get":       reachObserve,
	"internal/cloud.Bucket.List":      reachObserve,
	"internal/cloud.Platform.ListVMs": reachObserve,
	// The record count a checkpoint's sidecar claims.
	"internal/checkpoint.Checkpoint.NumRecords": reachObserve,
	// What the campaign index holds, against its record-by-record oracle
	// (core's TestCampaignIndexMatchesRecords, orchestrator's
	// TestStoreSinkIndexes).
	"internal/tsdb.Store.Dump": reachObserve,
	// Ground truth of the topology fixture.
	"internal/topology.Topology.RouterAliases": reachObserve,
	// Reads back the captures campaigns upload (and with it pcap's reader).
	"internal/flowstats.Analyze": reachObserve,
	// The decoded payload length only that read-back uses
	// (TestCapturesUploadedAndParseable, through flowstats.Analyze).
	"internal/pcap.TCP.PayloadLen": reachObserve,

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
	// A private registry (TestIntrospectionEndpoints).
	"internal/telemetry.Introspection.Registry": reachSeam,
	// Programs only turn the process-wide registry on; tests turn it off
	// again (cmd/clasp's TestMain, orchestrator's obs and fault tests).
	"internal/obs.SetEnabled(on)": reachSeam,

	// What only bench/ keeps: each waits for the benchmark's next change
	// (ROADMAP 1(c)). The harness's analysis probes over a slice adapter.
	"internal/analysis.GroupSeriesWithServerRanges(dir)":    reachBench,
	"internal/analysis.NewSliceCursor":                      reachBench,
	"internal/analysis.PerfPointsCursor":                    reachBench,
	"internal/analysis.RecordLog.CompressedBytes":           reachBench,
	"internal/congestion.SweepDaysPartitioned(minSamples)":  reachBench,
	"internal/congestion.SweepHoursPartitioned(minSamples)": reachBench,
	// The checkpoint and store probes; the engine indexes a campaign's log
	// in bulk (StoreSink.Index), the tsdb probe one record at a time.
	"internal/checkpoint.Checkpoint.Replay":  reachBench,
	"internal/orchestrator.StoreSink.Record": reachBench,
	"internal/tsdb.Store.BlockStats":         reachBench,
	"internal/tsdb.Store.SeriesCount":        reachBench,
	"internal/tsdb.Store.DropBefore":         reachBench,
	// The workloads' selection, topology, figure and someta calls.
	"internal/core.CLASP.SelectDifferentialServers#1": reachBench,
	"internal/core.CLASP.Fig8(tier)":                  reachBench,
	"internal/core.Fig2(hs)":                          reachBench,
	"internal/someta.NewCollector(probe)":             reachBench,
	"internal/topology.Topology.Links":                reachBench,
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
	{"math/rand", "Source"}, {"math/rand", "Source64"},
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
	reads []*types.Var   // every field its source reads (reachReads)
	calls []reachCall    // every call its source makes to a declared function
	sig   *reachSig      // a function's own signature facts; nil for the rest
	root  bool           // main or init of a program
	bench bool           // declared in a nested module: a root of the bench walk only
}

// reachField is one struct field and the type that declares it.
type reachField struct {
	reachDecl
	owner types.Object
}

// reachImpl says: once typ and owner are both live, methods are.
type reachImpl struct {
	typ, owner types.Object // owner nil: a std interface, always live
	methods    []types.Object
}

type reachGraph struct {
	decls   map[types.Object]*reachDecl
	fields  map[*types.Var]*reachField // the fields the field rules check
	set     map[*types.Var]bool        // fields a program writes
	byName  map[string]types.Object
	methods map[types.Object][]types.Object // type → its declared methods
	byType  map[types.Object][]*reachImpl
	byOwner map[types.Object][]*reachImpl
	valued  map[types.Object]bool           // functions some code uses as values
	pins    map[types.Object]token.Position // first use of each object in a nested module
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
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{}},
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
		fields: map[*types.Var]*reachField{}, set: map[*types.Var]bool{},
		valued: map[types.Object]bool{}, pins: map[types.Object]token.Position{},
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
					var o types.Object
					switch u := l.info.Uses[n].(type) {
					case *types.Func:
						o = u.Origin()
					case *types.Var:
						o = u.Origin()
					case *types.TypeName, *types.Const:
						o = u
					}
					if o == nil {
						break
					}
					uses = append(uses, o)
					if pos, ok := g.pins[o]; nested[p] && (!ok || reachBefore(reachFset.Position(n.Pos()), pos)) {
						g.pins[o] = reachFset.Position(n.Pos())
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
			reads := reachReads(l.info, node)
			calls, values := reachCalls(l.info, node)
			for _, v := range values {
				g.valued[v] = true
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
				d := &reachDecl{name: rel + "." + name, pos: pos, lines: lines, uses: uses, reads: reads, calls: calls, bench: nested[p]}
				d.root = !nested[p] && (id.Name == "init" || p.Name() == "main" && name == "main")
				if fd, ok := node.(*ast.FuncDecl); ok && fd.Body != nil {
					d.sig = reachSigOf(l.info, fd)
				}
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
										pos := reachFset.Position(id.Pos())
										pos.Filename = g.decls[l.info.Defs[spec.Name]].pos.Filename
										g.fields[l.info.Defs[id].(*types.Var)] = &reachField{reachDecl{name: rel + "." + spec.Name.Name + "." + id.Name, pos: pos}, l.info.Defs[spec.Name]}
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

// reachReads returns the fields node reads (DESIGN.md §17): every x.F
// evaluated for its value — an operand, an argument, a receiver, &x.F, a
// range or index base, any field on a write target's chain but the last —
// and every field of a struct compared with == or !=, used as a map key or
// boxed in an interface, plus every exported field reflection can reach
// through a value or pointer boxed in an interface (fmt, encoding/json). The
// last field of the target of =, op=, ++ or --, a composite-literal key and
// the x.F of x.F = append(x.F, …) are not reads.
func reachReads(info *types.Info, node ast.Node) []*types.Var {
	read := map[*types.Var]bool{}
	seen := map[types.Type]bool{}
	var compared, reflected func(t types.Type)
	compared = func(t types.Type) { // every field, recursively through values
		switch u := t.Underlying().(type) {
		case *types.Array:
			compared(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				compared(u.Field(i).Type())
			}
		}
	}
	reflected = func(t types.Type) { // every exported field, through anything
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			reflected(u.Elem())
		case *types.Slice:
			reflected(u.Elem())
		case *types.Array:
			reflected(u.Elem())
		case *types.Map:
			reflected(u.Key())
			reflected(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); f.Exported() {
					read[f.Origin()] = true
					reflected(f.Type())
				}
			}
		}
	}
	boxed := func(to types.Type, e ast.Expr) {
		if from := info.TypeOf(e); to != nil && from != nil && types.IsInterface(to) && !types.IsInterface(from) {
			compared(from)
			reflected(from)
		}
	}

	skip := map[*ast.SelectorExpr]bool{} // write targets and self-appends
	target := func(e ast.Expr) *ast.SelectorExpr {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				skip[x] = true
				return x
			default:
				return nil
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel := target(lhs)
				if sel == nil || len(n.Rhs) != len(n.Lhs) {
					continue
				}
				call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && types.ExprString(call.Args[0]) == types.ExprString(lhs) {
					if arg, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
						if _, builtin := info.Uses[id].(*types.Builtin); builtin {
							skip[arg] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			target(n.X)
		}
		return true
	})

	var results []*types.Tuple // of the enclosing functions
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			var sig *types.Signature
			var body *ast.BlockStmt
			if fd, ok := n.(*ast.FuncDecl); ok {
				sig, body = info.Defs[fd.Name].Type().(*types.Signature), fd.Body
			} else {
				sig, body = info.TypeOf(n.(*ast.FuncLit)).(*types.Signature), n.(*ast.FuncLit).Body
			}
			if body != nil {
				results = append(results, sig.Results())
				ast.Inspect(body, inspect)
				results = results[:len(results)-1]
			}
			return false
		case *ast.SelectorExpr:
			if v, ok := info.Uses[n.Sel].(*types.Var); ok && v.IsField() && !skip[n] {
				read[v.Origin()] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				compared(info.TypeOf(n.X))
			}
		case *ast.IndexExpr:
			if m, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				compared(m.Key())
			}
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			for i, e := range n.Elts {
				kv, _ := e.(*ast.KeyValueExpr)
				if kv != nil {
					e = kv.Value
				}
				switch u := t.Underlying().(type) {
				case *types.Struct:
					if kv == nil {
						boxed(u.Field(i).Type(), e)
					} else if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						boxed(v.Type(), e)
					}
				case *types.Slice:
					boxed(u.Elem(), e)
				case *types.Array:
					boxed(u.Elem(), e)
				case *types.Map:
					compared(u.Key())
					boxed(u.Key(), kv.Key)
					boxed(u.Elem(), e)
				}
			}
		case *ast.CallExpr:
			if tv := info.Types[n.Fun]; tv.IsType() {
				if len(n.Args) == 1 {
					boxed(tv.Type, n.Args[0])
				}
				return true
			}
			sig, ok := info.TypeOf(n.Fun).(*types.Signature)
			if !ok {
				return true
			}
			for i, arg := range n.Args {
				switch params := sig.Params(); {
				case sig.Variadic() && i >= params.Len()-1:
					pt := params.At(params.Len() - 1).Type()
					if !n.Ellipsis.IsValid() {
						pt = pt.(*types.Slice).Elem()
					}
					boxed(pt, arg)
				case i < params.Len():
					boxed(params.At(i).Type(), arg)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) && n.Tok == token.ASSIGN {
				for i, lhs := range n.Lhs {
					boxed(info.TypeOf(lhs), n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					boxed(info.TypeOf(n.Type), v)
				}
			}
		case *ast.ReturnStmt:
			if r := results[len(results)-1]; r.Len() == len(n.Results) {
				for i, e := range n.Results {
					boxed(r.At(i).Type(), e)
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				boxed(ch.Elem(), n.Value)
			}
		}
		return true
	}
	ast.Inspect(node, inspect)
	out := make([]*types.Var, 0, len(read))
	for v := range read {
		out = append(out, v)
	}
	return out
}

// reachCall is one call site of a declared function or method.
type reachCall struct {
	fn   types.Object // the callee (its origin, for a generic one)
	pos  token.Position
	args []string // per non-variadic parameter: the constant it gets (reachConst), "" for anything else
	read []bool   // per result: whether the site keeps it
}

// reachCalls returns the calls node makes to declared functions, and the
// functions it uses as values. A call keeps every result except those an
// expression statement, go, defer or a _ on the left of = or := drops.
func reachCalls(info *types.Info, node ast.Node) (calls []reachCall, values []types.Object) {
	type drop func(i int) bool
	all := drop(func(int) bool { return true })
	dropped := map[*ast.CallExpr]drop{}
	blank := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "_"
	}
	assign := func(lhs, rhs []ast.Expr) {
		if len(rhs) == 1 && len(lhs) > 1 {
			if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok {
				dropped[call] = func(i int) bool { return blank(lhs[i]) }
			}
			return
		}
		for i, e := range rhs {
			if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && i < len(lhs) && blank(lhs[i]) {
				dropped[call] = all
			}
		}
	}
	callee := map[*ast.Ident]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				dropped[call] = all
			}
		case *ast.GoStmt:
			dropped[n.Call] = all
		case *ast.DeferStmt:
			dropped[n.Call] = all
		case *ast.AssignStmt:
			assign(n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, id := range n.Names {
				lhs[i] = id
			}
			assign(lhs, n.Values)
		case *ast.CallExpr:
			fun, shift := ast.Unparen(n.Fun), 0
			switch f := fun.(type) {
			case *ast.IndexExpr:
				fun = f.X
			case *ast.IndexListExpr:
				fun = f.X
			}
			var id *ast.Ident
			switch f := fun.(type) {
			case *ast.Ident:
				id = f
			case *ast.SelectorExpr:
				id = f.Sel
				if s := info.Selections[f]; s != nil && s.Kind() == types.MethodExpr {
					shift = 1 // T.M(x, ...): the receiver comes first
				}
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			callee[id] = true
			sig := fn.Origin().Type().(*types.Signature)
			c := reachCall{fn: fn.Origin(), pos: reachFset.Position(n.Pos()), read: make([]bool, sig.Results().Len())}
			spread := false // f(g()): g's results are f's arguments
			if len(n.Args) == 1 {
				_, spread = info.TypeOf(n.Args[0]).(*types.Tuple)
			}
			for i := 0; i < sig.Params().Len() && !(sig.Variadic() && i == sig.Params().Len()-1); i++ {
				arg := ""
				if !spread && i+shift < len(n.Args) {
					arg = reachConst(info, n.Args[i+shift])
				}
				c.args = append(c.args, arg)
			}
			for i := range c.read {
				c.read[i] = dropped[n] == nil || !dropped[n](i)
			}
			calls = append(calls, c)
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok && !callee[n] {
				values = append(values, fn.Origin())
			}
		}
		return true
	})
	return calls, values
}

// reachConst returns the constant e is — its exact value, or "nil" — or ""
// if e is anything else.
func reachConst(info *types.Info, e ast.Expr) string {
	switch tv := info.Types[e]; {
	case tv.Value != nil:
		return tv.Value.ExactString()
	case tv.IsNil():
		return "nil"
	}
	return ""
}

// reachSig is what a function's own body says about its signature.
type reachSig struct {
	params []*types.Var
	unread []bool   // per parameter: the body never reads it
	always []string // per result: the constant every return gives (reachConst), or ""
}

// reachSigOf reads fd's signature against its body. A naked return, or one
// that returns a call's results, gives no constant.
func reachSigOf(info *types.Info, fd *ast.FuncDecl) *reachSig {
	sig := info.Defs[fd.Name].Type().(*types.Signature)
	s := &reachSig{always: make([]string, sig.Results().Len())}
	read := map[types.Object]bool{}
	var rets []*ast.ReturnStmt
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			read[info.Uses[n]] = true
		case *ast.FuncLit: // its returns are not fd's
			saved := rets
			ast.Inspect(n.Body, inspect)
			rets = saved
			return false
		case *ast.ReturnStmt:
			rets = append(rets, n)
		}
		return true
	}
	ast.Inspect(fd.Body, inspect)
	for i := 0; i < sig.Params().Len(); i++ {
		v := sig.Params().At(i)
		s.params = append(s.params, v)
		s.unread = append(s.unread, !read[v])
	}
	for i := range s.always {
		for k, r := range rets {
			v := ""
			if len(r.Results) == len(s.always) {
				v = reachConst(info, r.Results[i])
			}
			if v == "" || k > 0 && v != s.always[i] {
				s.always[i] = ""
				break
			}
			s.always[i] = v
		}
	}
	return s
}

// reachBefore orders positions by file, then line.
func reachBefore(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Line < b.Line
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
	why  string // "" = unreachable; otherwise what is wrong with it or its allow-list entry
}

// reachSigName reports whether name is a signature entry — pkg.F(p) names
// parameter p, pkg.T.M#1 result 1 — and returns the function's name.
func reachSigName(name string) (fn string, ok bool) {
	if i := strings.IndexAny(name, "(#"); i > 0 {
		return name[:i], true
	}
	return name, false
}

// checkReach applies the rule to the module at root. It returns the
// findings that fail it; per reason, the code lines the allow-list keeps
// (entries plus what only they reach); and per bench entry, the first
// bench/ site that pins it and, for a declaration, the code lines only it
// keeps.
func checkReach(root string, allowed map[string]string) (findings []reachFinding, kept map[string]int, pins map[string]string, err error) {
	g, err := buildReachGraph(root)
	if err != nil {
		return nil, nil, nil, err
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
	// The product is what programs reach plus the reference code tests
	// hold it to; its types' fields must be read, and only its reads count.
	var refs, benchRoots []types.Object
	for _, name := range names {
		if obj := g.byName[name]; obj != nil && allowed[name] == reachReference {
			refs = append(refs, append([]types.Object{obj}, g.methods[obj]...)...)
		}
	}
	for obj, d := range g.decls {
		if d.bench {
			benchRoots = append(benchRoots, obj)
		}
	}
	product, benchLive := g.walk(refs...), g.walk(benchRoots...)
	read := map[*types.Var]bool{}
	for obj := range product {
		for _, v := range g.decls[obj].reads {
			read[v] = true
		}
	}
	live := g.walk()
	at := func(pos token.Position) string { // relative to root
		if fn, err := filepath.Rel(root, pos.Filename); err == nil {
			pos.Filename = filepath.ToSlash(fn)
		}
		return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
	}
	pinned := map[string]token.Position{}
	pin := func(name string, pos token.Position) {
		if p, ok := pinned[name]; !ok || reachBefore(pos, p) {
			pinned[name] = pos
		}
	}
	benchLines := map[string]int{}

	sigs := g.checkSigs(live, product, benchLive)
	for _, f := range sigs {
		switch reason := allowed[f.decl.name]; {
		case reason == reachBench && f.pin != nil:
			pin(f.decl.name, *f.pin)
		case reason == reachSeam && f.seam:
		case reason == reachBench:
			findings = append(findings, reachFinding{f.decl, "allow-listed but bench does not pin it"})
		case reason != "":
			findings = append(findings, reachFinding{f.decl, fmt.Sprintf("allow-listed with reason %q, not %q or %q", reason, reachBench, reachSeam)})
		case f.pin != nil:
			findings = append(findings, reachFinding{f.decl, fmt.Sprintf("%s, but bench/ calls it (%s): list it as %q", f.why, at(*f.pin), reachBench)})
		default:
			findings = append(findings, f.reachFinding)
		}
	}

	var entries [][]types.Object // each entry with the methods it keeps
	for _, name := range names {
		obj, reason := g.byName[name], allowed[name]
		if fn, ok := reachSigName(name); ok {
			switch {
			case g.byName[fn] == nil:
				findings = append(findings, reachFinding{&reachDecl{name: name}, "allow-listed but gone"})
			case sigs[name] == nil:
				findings = append(findings, reachFinding{&reachDecl{name: name, pos: g.decls[g.byName[fn]].pos}, "allow-listed but holds without its entry"})
			}
			continue
		}
		if v := fieldByName[name]; v != nil || reason == reachSeam {
			switch {
			case v == nil:
				findings = append(findings, reachFinding{&reachDecl{name: name}, "allow-listed but gone"})
			case reason == reachSeam && g.set[v]:
				findings = append(findings, reachFinding{&g.fields[v].reachDecl, "allow-listed but a program sets it"})
			case reason == reachObserve && read[v]:
				findings = append(findings, reachFinding{&g.fields[v].reachDecl, "allow-listed but a program reads it"})
			case reason != reachSeam && reason != reachObserve:
				findings = append(findings, reachFinding{&g.fields[v].reachDecl, fmt.Sprintf("allow-listed with reason %q, not %q or %q", reason, reachSeam, reachObserve)})
			}
			continue
		}
		switch {
		case obj == nil:
			findings = append(findings, reachFinding{&reachDecl{name: name}, "allow-listed but gone"})
			continue
		case !slices.Contains(reachReasons, reason):
			findings = append(findings, reachFinding{g.decls[obj], fmt.Sprintf("allow-listed with reason %q, not one of %v", reason, reachReasons)})
		case reason == reachBench && !benchLive[obj]:
			findings = append(findings, reachFinding{g.decls[obj], "allow-listed but bench does not pin it"})
		}
		e := append([]types.Object{obj}, g.methods[obj]...)
		if reason == reachBench {
			for _, o := range e {
				if pos, ok := g.pins[o]; ok {
					pin(name, pos)
				}
			}
			for o := range g.walk(e...) {
				if !live[o] {
					benchLines[name] += g.decls[o].lines
				}
			}
		}
		entries = append(entries, e)
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
		if !live[obj] && !d.bench {
			findings = append(findings, reachFinding{decl: d})
		}
	}
	for v, d := range g.fields {
		if v.Exported() && !g.set[v] && allowed[d.name] != reachSeam {
			findings = append(findings, reachFinding{&d.reachDecl, "no program sets it"})
		}
		if product[d.owner] && !read[v] && allowed[d.name] != reachObserve {
			findings = append(findings, reachFinding{&d.reachDecl, "no program reads it"})
		}
	}
	pins = map[string]string{}
	for name, pos := range pinned {
		pins[name] = at(pos)
		if n, ok := benchLines[name]; ok {
			pins[name] += fmt.Sprintf(", %d lines", n)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].decl, findings[j].decl
		if a.pos.Filename != b.pos.Filename || a.pos.Line != b.pos.Line {
			return reachBefore(a.pos, b.pos)
		}
		return a.name < b.name
	})
	return findings, kept, pins, nil
}

// reachSigFinding is a signature that fails its leg, named as its entry.
type reachSigFinding struct {
	reachFinding
	pin  *token.Position // the first bench/ call site of the function
	seam bool            // a parameter every program call gives one constant
}

// checkSigs applies the result and parameter legs (DESIGN.md §17) to every
// function programs reach (live), counting the call sites in product code
// and, apart, those only bench reaches. Methods that implement an
// interface and functions used as values are exempt: their signature is
// not theirs to choose.
func (g *reachGraph) checkSigs(live, product, benchLive map[types.Object]bool) map[string]*reachSigFinding {
	exempt := map[types.Object]bool{}
	for _, impls := range g.byType {
		for _, impl := range impls {
			for _, m := range impl.methods {
				exempt[m] = true
			}
		}
	}
	type site struct {
		reachCall
		bench bool
	}
	sites := map[types.Object][]site{}
	for obj, d := range g.decls {
		if product[obj] || benchLive[obj] {
			for _, c := range d.calls {
				sites[c.fn] = append(sites[c.fn], site{c, !product[obj]})
			}
		}
	}
	out := map[string]*reachSigFinding{}
	for obj, d := range g.decls {
		if d.sig == nil || !live[obj] || g.valued[obj] || exempt[obj] {
			continue
		}
		// A signature bench/ calls stays as it is until bench/ changes.
		var pin *token.Position
		for _, s := range sites[obj] {
			if s.bench && (pin == nil || reachBefore(s.pos, *pin)) {
				pin = &s.pos
			}
		}
		fail := func(name, why string, seam bool) {
			out[name] = &reachSigFinding{reachFinding{&reachDecl{name: name, pos: d.pos}, why}, pin, seam}
		}
		for i, c := range d.sig.always {
			name := fmt.Sprintf("%s#%d", d.name, i)
			if c != "" {
				fail(name, "every return gives "+c, false)
				continue
			}
			if !slices.ContainsFunc(sites[obj], func(s site) bool { return s.read[i] && !s.bench }) {
				fail(name, "no product call site keeps it", false)
			}
		}
		sig := obj.Type().(*types.Signature)
		for i, v := range d.sig.params {
			if sig.Variadic() && i == len(d.sig.params)-1 {
				continue
			}
			pname := v.Name()
			if pname == "" || pname == "_" {
				pname = fmt.Sprint("_", i)
			}
			name := fmt.Sprintf("%s(%s)", d.name, pname)
			if d.sig.unread[i] {
				fail(name, "the body never reads it", false)
				continue
			}
			given := map[string]bool{}
			for _, s := range sites[obj] {
				if !s.bench {
					given[s.args[i]] = true
				}
			}
			if len(given) != 1 || given[""] {
				continue
			}
			for c := range given {
				fail(name, "every program call passes "+c, true)
			}
		}
	}
	return out
}

// TestReachability is the rule. With -v it prints what the allow-list
// keeps, by reason, in code lines (seam: the fields and parameters), and
// the bench/ site that pins each bench entry.
func TestReachability(t *testing.T) {
	findings, kept, pins, err := checkReach(".", reachAllowed)
	if err != nil {
		t.Fatal(err)
	}
	for _, reason := range reachReasons {
		var names []string
		for name, r := range reachAllowed {
			if r == reason {
				if pin, ok := pins[name]; ok {
					name += "  (" + pin + ")"
				}
				names = append(names, name)
			}
		}
		sort.Strings(names)
		what := fmt.Sprintf("keep %d code lines", kept[reason])
		if reason == reachSeam {
			what = "are fields and parameters only tests set"
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

// TestReachabilityRuleBites runs the checker on four modules. The first is
// shaped like this one: a library package at the module's root path, with
// one export the program calls and one it does not, and a program under
// cmd/ with one function reached from main, one reached only from a dead
// function — the transitive case a by-name scan misses, since the name is
// referenced — and one method live only through an interface. The checker
// must report the unused export and the dead pair and nothing else, and
// must reject every kind of stale allow-list entry. The second holds the
// field rule: a field nothing sets, one set only by its defaulting if and
// one only a _test.go file sets each fail it, a stale seam entry fails, and
// fields a program assigns, writes in a literal, binds to a flag, decodes
// from JSON or calls a pointer method on pass. The third holds the read rule: a field only a _test.go file
// reads, one only appended to itself, an unexported one only assigned and
// one only ++'d each fail it, a stale or wrongly reasoned observe entry
// fails, and a field fmt prints, one JSON-encoded through a map[string]any,
// a map-key struct's fields and a field compared with == pass. The fourth
// holds the signature legs: a result dropped by _, one dropped by an
// expression statement, one every return gives as nil, a parameter the body
// never reads and one every call gives the same constant each fail, and so
// do a stale bench entry, a stale seam entry and one naming nothing; a
// result read at one of two sites, a parameter given two constants or a
// variable, an interface method's unread parameter and a function used as a
// value pass, and a parameter only bench/ gives a second value passes once
// listed as bench.
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
			{map[string]string{"cmd.dead": "handy"}, `cmd.dead: allow-listed with reason "handy", not one of [reference observe seam bench] | cmd.dead: | cmd.onlyFromDead: | fixture.Unused:`},
		},
	}, {
		files: map[string]string{
			"go.mod": "module knobs\n\ngo 1.22\n",
			"lib.go": "package knobs\n\ntype Config struct {\n\tNever     int\n\tDefaulted int\n\tTestOnly  int\n\tAssigned  int\n\tKeyed     int\n\tFlagged   int\n\tBumped    Counter\n\tunset     int\n}\n\n" +
				"type Spec struct{ Decoded string }\n\ntype Counter struct{ n int }\n\nfunc (c *Counter) Set() { c.n = 1 }\n\n" +
				"func (c *Config) Fill() {\n\tif c.Defaulted == 0 {\n\t\tc.Defaulted = 5\n\t}\n}\n",
			"lib_test.go": "package knobs\n\nimport \"testing\"\n\nfunc TestSet(t *testing.T) { _ = Config{TestOnly: 1} }\n",
			"cmd/main.go": "package main\n\nimport (\n\t\"encoding/json\"\n\t\"flag\"\n\t\"fmt\"\n\n\t\"knobs\"\n)\n\n" +
				"func main() {\n\tc := knobs.Config{Keyed: 1}\n\tc.Assigned = 2\n\tflag.IntVar(&c.Flagged, \"n\", 0, \"\")\n\tc.Fill()\n\tc.Bumped.Set()\n\tvar s knobs.Spec\n\t_ = json.Unmarshal([]byte(`{}`), &s)\n\tfmt.Println(c, s)\n}\n",
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
	}, {
		files: map[string]string{
			"go.mod": "module reads\n\ngo 1.22\n",
			"lib.go": "package reads\n\ntype State struct {\n\tTestRead int\n\tLog      []int\n\tcount    int\n\tlast     int\n\tPrinted  Row\n\tEncoded  Hist\n}\n\n" +
				"type Row struct{ Shown int }\n\ntype Hist struct{ Count int }\n\ntype key struct{ a, b int }\n\ntype pair struct{ x int }\n\n" +
				"func (s *State) Step(v int) bool {\n\ts.Log = append(s.Log, v)\n\ts.count++\n\ts.last = v\n\tseen := map[key]bool{}\n\tseen[key{v, v}] = true\n\treturn len(seen) == 1 && pair{v} == pair{1}\n}\n",
			"lib_test.go": "package reads\n\nimport \"testing\"\n\nfunc TestRead(t *testing.T) { _ = State{}.TestRead }\n",
			"cmd/main.go": "package main\n\nimport (\n\t\"encoding/json\"\n\t\"fmt\"\n\t\"os\"\n\n\t\"reads\"\n)\n\n" +
				"func main() {\n\ts := &reads.State{TestRead: 1, Printed: reads.Row{Shown: 2}, Encoded: reads.Hist{Count: 3}}\n\tfmt.Println(s.Step(len(os.Args)), s.Printed)\n" +
				"\t_ = json.NewEncoder(os.Stdout).Encode(map[string]any{\"h\": s.Encoded})\n}\n",
		},
		cases: []struct {
			allowed map[string]string
			want    string
		}{
			{nil, "reads.State.TestRead: no program reads it | reads.State.Log: no program reads it | reads.State.count: no program reads it | reads.State.last: no program reads it"},
			{map[string]string{"reads.State.TestRead": reachObserve, "reads.State.Log": reachObserve, "reads.State.count": reachObserve, "reads.State.last": reachObserve}, ""},
			{map[string]string{"reads.State.TestRead": reachObserve, "reads.Row.Shown": reachObserve},
				"reads.State.Log: no program reads it | reads.State.count: no program reads it | reads.State.last: no program reads it | reads.Row.Shown: allow-listed but a program reads it"},
			{map[string]string{"reads.State.TestRead": reachReference, "reads.State.Gone": reachObserve},
				`reads.State.Gone: allow-listed but gone | reads.State.TestRead: allow-listed with reason "reference", not "seam" or "observe" | reads.State.TestRead: no program reads it | reads.State.Log: no program reads it | reads.State.count: no program reads it | reads.State.last: no program reads it`},
		},
	}, {
		files: map[string]string{
			"go.mod": "module sigs\n\ngo 1.22\n",
			"lib.go": "package sigs\n\nvar n int\n\nfunc Blanked() int { return n }\n\nfunc Dropped() int { return n }\n\nfunc Nil() error { return nil }\n\n" +
				"func Half() int { return n }\n\nfunc Unread(a int) {}\n\nfunc Const(c int) { n += c }\n\nfunc Two(c int) { n += c }\n\nfunc Var(c int) { n += c }\n\n" +
				"func Pinned(c int) { n += c }\n\ntype Shape interface{ Scale(f int) int }\n\ntype Square struct{}\n\nfunc (Square) Scale(f int) int { return 1 }\n\n" +
				"func Callback(x int) int { return 0 }\n",
			"cmd/main.go": "package main\n\nimport (\n\t\"os\"\n\n\t\"sigs\"\n)\n\n" +
				"func main() {\n\t_ = sigs.Blanked()\n\tsigs.Dropped()\n\tif err := sigs.Nil(); err != nil {\n\t\tos.Exit(1)\n\t}\n\tx := sigs.Half()\n\tsigs.Half()\n" +
				"\tsigs.Unread(x)\n\tsigs.Const(3)\n\tsigs.Const(3)\n\tsigs.Two(1)\n\tsigs.Two(2)\n\tsigs.Var(len(os.Args))\n\tsigs.Pinned(1)\n" +
				"\tvar s sigs.Shape = sigs.Square{}\n\tapply(sigs.Callback, s.Scale(x))\n}\n\nfunc apply(f func(int) int, v int) { os.Exit(f(v)) }\n",
			"bench/go.mod":  "module sigs/bench\n\ngo 1.22\n",
			"bench/main.go": "package main\n\nimport \"sigs\"\n\nfunc main() { sigs.Pinned(7) }\n",
		},
		cases: []struct {
			allowed map[string]string
			want    string
		}{
			{nil, `sigs.Blanked#0: no product call site keeps it | sigs.Dropped#0: no product call site keeps it | sigs.Nil#0: every return gives nil | sigs.Unread(a): the body never reads it | sigs.Const(c): every program call passes 3 | sigs.Pinned(c): every program call passes 1, but bench/ calls it (bench/main.go:5): list it as "bench"`},
			{map[string]string{"sigs.Pinned(c)": reachBench}, "sigs.Blanked#0: no product call site keeps it | sigs.Dropped#0: no product call site keeps it | sigs.Nil#0: every return gives nil | sigs.Unread(a): the body never reads it | sigs.Const(c): every program call passes 3"},
			{map[string]string{"sigs.Pinned(c)": reachBench, "sigs.Const(c)": reachSeam}, "sigs.Blanked#0: no product call site keeps it | sigs.Dropped#0: no product call site keeps it | sigs.Nil#0: every return gives nil | sigs.Unread(a): the body never reads it"},
			{map[string]string{"sigs.Pinned(c)": reachBench, "sigs.Const(c)": reachBench, "sigs.Two(c)": reachSeam, "sigs.Gone#0": reachBench},
				"sigs.Gone#0: allow-listed but gone | sigs.Blanked#0: no product call site keeps it | sigs.Dropped#0: no product call site keeps it | sigs.Nil#0: every return gives nil | sigs.Unread(a): the body never reads it | sigs.Const(c): allow-listed but bench does not pin it | sigs.Two(c): allow-listed but holds without its entry"},
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
			findings, _, _, err := checkReach(dir, tc.allowed)
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
