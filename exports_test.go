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
	"strconv"
	"strings"
	"testing"
)

// exportAllow lists the exported names under internal/ that only tests
// reference, each with the reason it stays. Keys are "dir.Name" for
// package-level names and "dir.(Type).Name" for methods.
var exportAllow = map[string]string{
	// Interfaces the standard library calls.
	"internal/cell.(eventsByTime).Less":          "sort.Interface",
	"internal/cell.(eventsByTime).Swap":          "sort.Interface",
	"internal/scenario.(Duration).MarshalJSON":   "json.Marshaler",
	"internal/scenario.(Duration).UnmarshalJSON": "json.Unmarshaler",

	// Reference implementations that optimized code is tested against.
	"internal/metrics.Throughput":      "batch reference for the online Accumulator",
	"internal/metrics.EndToEndDelay":   "batch reference for the online Accumulator",
	"internal/metrics.OmniscientDelay": "batch reference for the online Accumulator",
	"internal/metrics.FilterFlow":      "per-flow split of the batch reference",
	"internal/trace.NewReplay":         "replays a materialized trace as the oracle for every streaming process",

	// Fault harnesses the supervisor and dispatch tests drive.
	"internal/dispatch.(Loopback).Revive": "host reboot",

	// State tests read as their oracle: the posterior, and counters of
	// what an endpoint did.
	"internal/core.(Model).BinRate":               "posterior inspection, public through sprout.Model; the naive reference filter reads it",
	"internal/codel.(CoDel).Drops":                "drop count the CoDel tests assert",
	"internal/link.(Link).Drops":                  "drop counts the admit differential and the link tests compare",
	"internal/link.(Link).StaleDrops":             "stale-arrival count the admit differential and the tower tests compare",
	"internal/link.(Link).WastedOpportunities":    "wasted-opportunity count the admit differential compares",
	"internal/link.(Link).QueueLen":               "standing-slot queue length the admit differential and the link tests read",
	"internal/link.(Link).Slots":                  "slot high-water mark the admit differential walks",
	"internal/network.(Pool).InUse":               "live-packet count the leak and release tests assert",
	"internal/sim.(Loop).Fired":                   "event count the no-event-per-packet tests assert",
	"internal/sim.(Loop).Pending":                 "pending-event count the loop and link tests assert",
	"internal/core.(Model).Distribution":          "posterior inspection, public through sprout.Model; the naive reference filter reads it",
	"internal/core.(Model).Quantile":              "posterior inspection, public through sprout.Model",
	"internal/stats.(IntervalSet).Contiguous":     "the quick-check model compares the set's contiguous prefix",
	"internal/network.(Pool).Allocated":           "arena high-water mark the leak and allocation guards read",
	"internal/app.(Sender).Decreases":             "rate-cut count the app-model tests assert",
	"internal/tcp.(Sender).SRTT":                  "end state compared by the segment-ring differential",
	"internal/tcp.(Receiver).Segments":            "end state compared by the segment-ring differential",
	"internal/tcp.(Receiver).NextExpected":        "in-order progress the TCP tests assert",
	"internal/transport.(Receiver).FeedbacksSent": "feedback count the transport tests assert",
	"internal/transport.(Sender).Heartbeats":      "heartbeat count the transport tests assert",
	"internal/tunnel.(Egress).BadFrames":          "malformed-frame count the tunnel tests assert",
}

// exportedDecl is one exported name declared in a non-test file.
type exportedDecl struct {
	dir, key, name string
	method         bool
}

// parsedFile is one non-test Go file of the module.
type parsedFile struct {
	dir  string
	file *ast.File
}

// parseModule parses every non-test .go file under the module root,
// skipping dot-directories and testdata.
func parseModule(t *testing.T) []parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []parsedFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsedFile{dir: filepath.ToSlash(filepath.Dir(path)), file: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvName returns the receiver's type name, pointer and type parameters
// stripped.
func recvName(fd *ast.FuncDecl) string {
	e := fd.Recv.List[0].Type
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

// exportedDecls lists the exported funcs, methods, types, consts and vars
// a file declares.
func exportedDecls(pf parsedFile) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident) {
		if id.IsExported() {
			out = append(out, exportedDecl{dir: pf.dir, key: pf.dir + "." + id.Name, name: id.Name})
		}
	}
	for _, decl := range pf.file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			} else if d.Name.IsExported() {
				out = append(out, exportedDecl{
					dir: pf.dir, name: d.Name.Name, method: true,
					key: pf.dir + ".(" + recvName(d) + ")." + d.Name.Name,
				})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	return out
}

// TestNoUnusedExports holds internal/ to its callers: an exported name that
// only tests reference is either deleted, moved beside its test, or listed
// in exportAllow with its reason. It works from syntax alone (go/parser,
// nothing to download). A name counts as referenced by a selector on an
// import of its package from another package's non-test code, by a
// selector of a method's name there, or by any further occurrence of the
// identifier in its own package's non-test code — an interface method it
// satisfies, a signature it appears in, a call. So it can miss an unused
// name that shares a used one's spelling, never flag a used one. It logs
// the exported-name count over the root package and internal/ so a PR's
// surface delta is a number.
func TestNoUnusedExports(t *testing.T) {
	files := parseModule(t)

	// pkgRefs[dir][Name]: Name selected on an import of dir from another
	// package. selRefs[Name]: dirs whose files select .Name on anything
	// else. idents[dir][Name]: occurrences of the identifier in dir.
	pkgRefs := map[string]map[string]bool{}
	selRefs := map[string]map[string]bool{}
	idents := map[string]map[string]int{}
	mark := func(m map[string]map[string]bool, a, b string) {
		if m[a] == nil {
			m[a] = map[string]bool{}
		}
		m[a][b] = true
	}
	for _, pf := range files {
		imports := map[string]string{} // local name -> dir
		for _, im := range pf.file.Imports {
			path, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(path, "sprout/")
			if !ok {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = dir
		}
		if idents[pf.dir] == nil {
			idents[pf.dir] = map[string]int{}
		}
		ast.Inspect(pf.file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				idents[pf.dir][x.Name]++
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && imports[pkg.Name] != "" {
					if dir := imports[pkg.Name]; dir != pf.dir {
						mark(pkgRefs, dir, x.Sel.Name)
					}
				} else {
					mark(selRefs, x.Sel.Name, pf.dir)
				}
			}
			return true
		})
	}

	var decls []exportedDecl
	declared := map[string]int{} // "dir.Name" -> declarations of that spelling
	for _, pf := range files {
		if pf.dir == "." || strings.HasPrefix(pf.dir, "internal/") {
			for _, d := range exportedDecls(pf) {
				decls = append(decls, d)
				declared[d.dir+"."+d.name]++
			}
		}
	}
	seen := map[string]bool{}
	for _, d := range decls {
		if d.dir == "." {
			continue // the facade is the module's public surface
		}
		seen[d.key] = true
		used := idents[d.dir][d.name] > declared[d.dir+"."+d.name]
		if d.method {
			for dir := range selRefs[d.name] {
				used = used || dir != d.dir
			}
		} else {
			used = used || pkgRefs[d.dir][d.name]
		}
		reason, allowed := exportAllow[d.key]
		switch {
		case used && allowed:
			t.Errorf("%s is allowlisted (%s) but non-test code references it: drop it from exportAllow", d.key, reason)
		case !used && !allowed:
			t.Errorf("%s is exported but only tests reference it: delete it, move it beside its test, or allowlist it with a reason", d.key)
		}
	}
	for key := range exportAllow {
		if !seen[key] {
			t.Errorf("exportAllow names %s, which does not exist", key)
		}
	}
	t.Logf("exported names (root + internal/, non-test files): %d", len(decls))
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

// checkModule type-checks every non-test package of the module from
// source: the files go/build selects for this platform, importing the
// standard library from GOROOT's sources with cgo off, so nothing but the
// toolchain is read and nothing is downloaded.
func checkModule(t *testing.T) *checkedModule {
	t.Helper()
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false // the source importer reads build.Default
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
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
	if err != nil {
		t.Fatal(err)
	}
	return m
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
