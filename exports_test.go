package sprout_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// exportAllow lists the exported names under internal/ that only tests
// reference, each with the reason it stays. Keys are "dir.Name" for
// package-level names and "dir.(Type).Name" for methods.
var exportAllow = map[string]string{
	// Interfaces the standard library calls.
	"internal/cell.(eventsByTime).Len":           "sort.Interface",
	"internal/cell.(eventsByTime).Less":          "sort.Interface",
	"internal/cell.(eventsByTime).Swap":          "sort.Interface",
	"internal/scenario.(Duration).MarshalJSON":   "json.Marshaler",
	"internal/scenario.(Duration).UnmarshalJSON": "json.Unmarshaler",
	"internal/engine.(Stats).String":             "fmt.Stringer",
	"internal/fault.(Plan).String":               "fmt.Stringer",

	// Reference implementations that optimized code is tested against.
	"internal/metrics.Throughput":      "batch reference for the online Accumulator",
	"internal/metrics.EndToEndDelay":   "batch reference for the online Accumulator",
	"internal/metrics.OmniscientDelay": "batch reference for the online Accumulator",
	"internal/metrics.MeanDelay":       "batch reference for the online Accumulator",
	"internal/metrics.FilterFlow":      "per-flow split of the batch reference",
	"internal/trace.NewReplay":         "replays a materialized trace as the oracle for every streaming process",

	// Fault harnesses the supervisor and dispatch tests drive.
	"internal/dispatch.(Loopback).Revive": "host reboot",

	// Lifecycle the commands leave to process exit.
	"internal/udp.(Conn).Close": "unblocks Serve; the UDP and end-to-end tests stop their endpoints with it",

	// Facade surface that only tests exercise.
	"internal/core.(DeliveryForecaster).Clone": "public through sprout.DeliveryForecaster; the clone tests tick copies concurrently",
	"internal/trace.(Trace).Slice":             "public through sprout.Trace; the saturator test windows its ground truth with it",

	// State tests read as their oracle: the posterior, and counters of
	// what an endpoint did.
	"internal/core.(Model).BinRate":           "posterior inspection, public through sprout.Model; the naive reference filter reads it",
	"internal/codel.(CoDel).Drops":            "drop count the CoDel tests assert",
	"internal/link.(Link).Drops":              "drop counts the admit differential and the link tests compare",
	"internal/link.(Link).StaleDrops":         "stale-arrival count the admit differential and the tower tests compare",
	"internal/link.(Link).QueueLen":           "standing-slot queue length the admit differential and the link tests read",
	"internal/link.(Link).Slots":              "slot high-water mark the admit differential walks",
	"internal/network.(Pool).InUse":           "live-packet count the leak and release tests assert",
	"internal/sim.(Loop).Pending":             "pending-event count the loop and link tests assert",
	"internal/core.(Model).Distribution":      "posterior inspection, public through sprout.Model; the naive reference filter reads it",
	"internal/core.(Model).Quantile":          "posterior inspection, public through sprout.Model",
	"internal/stats.(IntervalSet).Contiguous": "the quick-check model compares the set's contiguous prefix",
	"internal/app.(Sender).Decreases":         "rate-cut count the app-model tests assert",
	"internal/tcp.(Sender).SRTT":              "end state compared by the segment-ring differential",
	"internal/tcp.(Sender).Stats":             "transmission counters the segment-ring differential and the tunnel-Cubic test compare",
	"internal/tcp.(Receiver).Segments":        "end state compared by the segment-ring differential",
	"internal/tcp.(Receiver).NextExpected":    "in-order progress the TCP tests assert",
	"internal/tunnel.(Egress).BadFrames":      "malformed-frame count the tunnel tests assert",
}

// TestNoUnusedExports holds internal/ to its callers: an exported name that
// only tests reference is either deleted, moved beside its test, or listed
// in exportAllow with its reason. Names resolve with go/types
// (checkModule), so a name that shares a used one's spelling is still
// caught. A name counts as used when non-test code outside its own
// declaration refers to its object, or when it is a method that satisfies
// a method of an interface non-test code calls through. It logs the
// exported-name count over the root package and internal/ so a PR's
// surface delta is a number.
func TestNoUnusedExports(t *testing.T) {
	m := checkModule(t)

	// decl[pos]: the span of the declaration whose name sits at pos.
	type span struct{ from, to token.Pos }
	decl := map[token.Pos]span{}
	for _, f := range m.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decl[d.Name.Pos()] = span{d.Pos(), d.End()}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						decl[s.Name.Pos()] = span{s.Pos(), s.End()}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							decl[id.Pos()] = span{s.Pos(), s.End()}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	called := map[*types.Interface]bool{} // interfaces non-test code calls through
	for id, obj := range m.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[recv.Type().Underlying().(*types.Interface)] = true
			}
		case *types.Var:
			obj = o.Origin()
		}
		if sp, ok := decl[obj.Pos()]; !ok || id.Pos() < sp.from || id.Pos() >= sp.to {
			used[obj] = true
		}
	}
	satisfies := func(fn *types.Func, recv types.Type) bool {
		for iface := range called {
			m, _, _ := types.LookupFieldOrMethod(iface, false, fn.Pkg(), fn.Name())
			if m != nil && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
				return true
			}
		}
		return false
	}

	names := 0
	seen := map[string]bool{}
	check := func(key string, used bool) {
		seen[key] = true
		reason, allowed := exportAllow[key]
		switch {
		case used && allowed:
			t.Errorf("%s is allowlisted (%s) but non-test code references it: drop it from exportAllow", key, reason)
		case !used && !allowed:
			t.Errorf("%s is exported but only tests reference it: delete it, move it beside its test, or allowlist it with a reason", key)
		}
	}
	for path, pkg := range m.pkgs {
		dir := strings.TrimPrefix(path, "sprout/")
		facade := path == "sprout" // the module's public surface
		if !facade && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				names++
				if !facade {
					check(dir+"."+name, used[obj])
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				fn := named.Method(i)
				if fn.Exported() {
					names++
					if !facade {
						check(dir+".("+name+")."+fn.Name(), used[fn] || satisfies(fn, named))
					}
				}
			}
		}
	}
	for key := range exportAllow {
		if !seen[key] {
			t.Errorf("exportAllow names %s, which does not exist", key)
		}
	}
	t.Logf("exported names (root + internal/, non-test files): %d", names)
}

// fieldAllow lists the exported struct fields under internal/ that only
// tests set, each with the reason it stays. Keys are "dir.Type.Field".
var fieldAllow = map[string]string{
	"internal/scenario.ShardedOptions.Traces":       "tests observe the shared trace cache through it",
	"internal/scenario.ShardedOptions.Workers":      "the shard-determinism tests vary the per-shard engine width through it",
	"internal/transport.ReceiverConfig.LiteralSkip": "TestAblations' literal-skip variant (DESIGN §6.1)",
}

// checkedModule is the module's non-test code, type-checked.
type checkedModule struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	pkgs  map[string]*types.Package // by import path
	files []*ast.File
	info  *types.Info
}

// checkModule returns the module type-checked once per test binary
// (typeCheckModule): TestNoUnusedExports and TestNoTestOnlyFields share
// the one result, which both only read.
func checkModule(t *testing.T) *checkedModule {
	t.Helper()
	moduleOnce.Do(func() { module, moduleErr = typeCheckModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return module
}

var (
	moduleOnce sync.Once
	module     *checkedModule
	moduleErr  error
)

// typeCheckModule type-checks every non-test package of the module from
// source: the files go/build selects for this platform, importing the
// standard library from GOROOT's sources with cgo off, so nothing but the
// toolchain is read and nothing is downloaded.
func typeCheckModule() (*checkedModule, error) {
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false // the source importer reads build.Default
	defer func() { build.Default.CgoEnabled = cgo }()
	fset := token.NewFileSet()
	m := &checkedModule{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = m.ImportFrom(filepath.ToSlash(filepath.Join("sprout", path)), path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	return m, err
}

func (m *checkedModule) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, ".", 0)
}

// ImportFrom type-checks a package of the module on first import, with
// function bodies, into the shared Info; any other path is the standard
// library's.
func (m *checkedModule) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "sprout")
	if !ok || (rel != "" && rel[0] != '/') {
		return m.std.ImportFrom(path, dir, mode)
	}
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	bp, err := build.Default.ImportDir("."+rel, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	m.files = append(m.files, files...)
	return pkg, nil
}

// TestNoTestOnlyFields holds internal/ to one value per setting: an
// exported field of a non-test struct that no non-test file sets is a
// setting only tests turn, so it becomes a constant, goes, or is
// allowlisted in fieldAllow with its reason. A field is set by a
// composite-literal key, an assignment or inc/dec target, or &x.F, each
// resolved with go/types to the field it names, so a test-only field
// cannot hide behind a set field of the same name. Fields with a json tag
// other than "-" are exempt: input from outside the program sets them. It
// logs the field count so a PR's delta is a number.
func TestNoTestOnlyFields(t *testing.T) {
	m := checkModule(t)
	set := map[*types.Var]bool{}
	mark := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			set[v.Origin()] = true
		}
	}
	for _, f := range m.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var targets []ast.Expr
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					mark(m.info.Uses[id])
				}
			case *ast.AssignStmt:
				targets = x.Lhs
			case *ast.IncDecStmt:
				targets = []ast.Expr{x.X}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					targets = []ast.Expr{x.X}
				}
			}
			for _, e := range targets {
				if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
					if s := m.info.Selections[sel]; s != nil {
						mark(s.Obj())
					}
				}
			}
			return true
		})
	}

	fields := 0
	seen := map[string]bool{}
	for path, pkg := range m.pkgs {
		dir := strings.TrimPrefix(path, "sprout/")
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if !f.Exported() || f.Embedded() {
					continue
				}
				if json, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok && json != "-" {
					continue
				}
				fields++
				key := dir + "." + name + "." + f.Name()
				seen[key] = true
				reason, allowed := fieldAllow[key]
				switch {
				case set[f] && allowed:
					t.Errorf("%s is allowlisted (%s) but non-test code sets it: drop it from fieldAllow", key, reason)
				case !set[f] && !allowed:
					t.Errorf("%s is exported but only tests set it: make it a constant, delete it, or allowlist it with a reason", key)
				}
			}
		}
	}
	for key := range fieldAllow {
		if !seen[key] {
			t.Errorf("fieldAllow names %s, which does not exist", key)
		}
	}
	t.Logf("exported struct fields without a json tag (internal/, non-test files): %d", fields)
}
