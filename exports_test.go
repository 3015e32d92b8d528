package sprout_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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

	"internal/linktest.AdmitMatchesPerArrivalEvents": "differential driver shared by the link and cell tests",
	"internal/linktest.AccessorsAdmitFirst":          "differential driver shared by the link and cell tests",
	"internal/linktest.SendSchedulesNoEvent":         "differential driver shared by the link and cell tests",

	// Fault harnesses the supervisor and dispatch tests drive.
	"internal/dispatch.(Loopback).Revive": "host reboot",

	// State tests read as their oracle: the posterior, and counters of
	// what an endpoint did.
	"internal/core.(Model).BinRate":               "posterior inspection, public through sprout.Model; the naive reference filter reads it",
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
