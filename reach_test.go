package tcsb_test

// The production-reach gate: every package-level func, method, var and
// type declared in a production package under internal/ must be
// referenced from a non-test file outside internal/simtest, and every
// field of a struct type declared there must be written by one. Code
// that only tests call measures nothing, and a field only tests set is a
// mode no binary reaches; yet both must be read, tested and carried
// through every refactor. They belong in the test files that use them.
// The fixtures under internal/simtest are test code whatever their file
// names: no binary imports them, so their uses and writes do not count.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist holds identifiers the gate would flag but that stay in
// production code, keyed as the gate prints them ("pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field"), each with the reason it stays.
var reachAllowlist = map[string]string{
	"core.TimelineOptions.OnEpoch": "the epoch-boundary invariant suites' hook into RunTimeline; " +
		"engine progress reporting through the same struct would make it a production write",

	"scenario.Config.RetainTrace": rawTraceReason,
	"hydra.Hydra.Log":             rawTraceReason,
	"monitor.Monitor.Log":         rawTraceReason,
	"trace.TimingSink.Raw":        rawTraceReason,
	"trace.Log.Events":            rawTraceReason,

	"hydra.Hydra.ProviderStats":       suiteReadReason + ": the provider-record ledger of Hydra deployments",
	"scenario.World.LiveCIDs":         suiteReadReason + ": the live-catalog containment check",
	"stats.Sketch.RelativeErrorBound": suiteReadReason + ": the sketch-vs-exact check; its exact-vs-spilled switch is unexported",
	"dht.Walker.GetClosestPeers":      suiteReadReason + ": the resolver-horizon probe walk",
}

const (
	rawTraceReason = "the retained raw trace the invariant suite's equivalence checks compare against; " +
		"Config.RetainTrace and its four readers leave together, and removing the field moves every run key"
	suiteReadReason = "world state the invariant suite reads through production API"
)

func TestProductionReach(t *testing.T) {
	findings, err := unreached(".")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, f := range findings {
		flagged[f.name] = true
		if _, ok := reachAllowlist[f.name]; !ok {
			t.Errorf("%s:%d: %s is %s by no non-test file outside internal/simtest", f.file, f.line, f.name, f.verb)
		}
	}
	for name := range reachAllowlist {
		if !flagged[name] {
			t.Errorf("allowlist entry %s is reached or gone; delete the entry", name)
		}
	}
}

// TestProductionReachFixture runs the gate over testdata/reach, a module
// with one declaration per case, and expects exactly the flagged ones.
func TestProductionReachFixture(t *testing.T) {
	findings, err := unreached(filepath.Join("testdata", "reach"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, f := range findings {
		got[f.name] = fmt.Sprintf("%s:%d", f.file, f.line)
	}
	cases := []struct {
		name    string
		flagged string // file:line of the finding; "" when not flagged
	}{
		{"lib.TestOnly", "internal/lib/lib.go:8"},  // exported; only lib_test.go calls it
		{"lib.dead", "internal/lib/lib.go:11"},     // unexported, never called
		{"lib.deadVar", "internal/lib/lib.go:14"},  // unexported var, never used
		{"lib.selfOnly", "internal/lib/lib.go:17"}, // only called from its own body
		{"lib.once", ""},                                     // called once, from lib.Total
		{"lib.Square.Area", ""},                              // implements lib.Shape
		{"lib.Square.String", ""},                            // implements fmt.Stringer
		{"lib.Box.Get", ""},                                  // called on a Box[int]
		{"lib.BenchOnly", ""},                                // called from the nested bench module
		{"lib.Box.V", ""},                                    // set by key on a Box[int]
		{"lib.Fields.Keyed", ""},                             // set by key in cmd/app
		{"lib.Fields.Assigned", ""},                          // assigned in Bump
		{"lib.Fields.Counted", ""},                           // incremented in Bump
		{"lib.Fields.Addressed", ""},                         // its address taken in Bump
		{"lib.Fields.Mu", ""},                                // locked through a pointer-receiver method
		{"lib.Fields.Tagged", ""},                            // JSON-tagged
		{"lib.Fields.TestSet", "internal/lib/fields.go:14"},  // only lib_test.go sets it
		{"lib.Fields.ReadOnly", "internal/lib/fields.go:15"}, // read in Bump, never written
		{"lib.Pair.A", ""},                                   // set by position in Bump
		{"lib.Pair.B", ""},                                   // set by position in Bump

		// internal/simtest/harness, a test fixture, is neither checked
		// nor counted as a user or writer.
		{"lib.HarnessOnly", "internal/lib/lib.go:62"},          // only the harness calls it
		{"lib.Fields.HarnessSet", "internal/lib/fields.go:16"}, // only the harness sets it
		{"harness.Run", ""}, // never called, but not checked
	}
	flagged := 0
	for _, c := range cases {
		if got[c.name] != c.flagged {
			t.Errorf("%s: finding at %q, want %q", c.name, got[c.name], c.flagged)
		}
		if c.flagged != "" {
			flagged++
		}
	}
	if len(findings) != flagged {
		t.Errorf("%d findings, want %d: %v", len(findings), flagged, got)
	}
}

// reachFinding is one production identifier no non-test file uses, or
// one struct field no non-test file writes.
type reachFinding struct {
	file string // relative to the scanned root
	line int
	name string // pkg.Name, pkg.Type.Method or pkg.Type.Field
	verb string // "referenced" or "written"
}

// reachPkg is one directory's non-test Go files.
type reachPkg struct {
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// unreached type-checks the non-test files of every package under root,
// including nested modules such as bench/, and returns the package-level
// funcs, methods, vars and types of the packages under internal/ that no
// non-test file references. The packages under internal/simtest are
// neither checked nor counted as users: they are test fixtures, which no
// binary imports. Constants are exempt, as are methods that implement
// fmt.Stringer, error or an interface declared under root. A use inside
// the object's own declaration, or in the receiver of a method on a
// type, does not count. It also returns the named fields of the struct
// types declared in those packages that no non-test file outside
// internal/simtest writes (see writtenFields); fields with a json tag
// are exempt, since encoding/json writes them by reflection, and
// embedded fields are not checked.
func unreached(root string) ([]reachFinding, error) {
	fset := token.NewFileSet()
	pkgs, err := parseTree(fset, root)
	if err != nil {
		return nil, err
	}
	imp := &treeImporter{fset: fset, pkgs: pkgs, std: importer.Default()}
	var paths []string
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp.Import(p); err != nil {
			return nil, err
		}
	}

	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	inSimtest := func(path string) bool {
		return path == mod+"/internal/simtest" || strings.HasPrefix(path, mod+"/internal/simtest/")
	}
	isTarget := func(path string) bool {
		return strings.HasPrefix(path, mod+"/internal/") && !inSimtest(path)
	}

	// Declarations of the checked objects, whose uses do not count for
	// them, and the identifiers in method receivers, which are part of
	// their type's declaration.
	own := map[types.Object]reachSpan{}
	inReceiver := map[*ast.Ident]bool{}
	var ifaces []*types.Interface
	for _, p := range paths {
		pkg := pkgs[p]
		for _, name := range pkg.types.Scope().Names() {
			if tn, ok := pkg.types.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		if !isTarget(p) {
			continue
		}
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						continue
					}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								inReceiver[id] = true
							}
							return true
						})
					}
					own[pkg.info.Defs[d.Name]] = reachSpan{d.Pos(), d.End()}
				case *ast.GenDecl:
					if d.Tok == token.CONST || d.Tok == token.IMPORT {
						continue
					}
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[pkg.info.Defs[s.Name]] = reachSpan{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									own[pkg.info.Defs[n]] = reachSpan{s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}
	fmtPkg, err := imp.Import("fmt")
	if err != nil {
		return nil, err
	}
	ifaces = append(ifaces,
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface),
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	reached := map[types.Object]bool{}
	for _, p := range paths {
		if inSimtest(p) {
			continue
		}
		for id, obj := range pkgs[p].info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			s, ok := own[obj]
			if !ok || inReceiver[id] || (s.from <= id.Pos() && id.Pos() < s.to) {
				continue
			}
			reached[obj] = true
		}
	}

	var out []reachFinding
	add := func(obj types.Object, name, verb string) error {
		pos := fset.Position(obj.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			return err
		}
		out = append(out, reachFinding{file: filepath.ToSlash(rel), line: pos.Line, name: name, verb: verb})
		return nil
	}
	for obj := range own {
		if reached[obj] || implementsMethod(obj, ifaces) {
			continue
		}
		name := obj.Pkg().Name() + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = obj.Pkg().Name() + "." + recvName(recv.Type()) + "." + obj.Name()
			}
		}
		if err := add(obj, name, "referenced"); err != nil {
			return nil, err
		}
	}

	written := map[*types.Var]bool{}
	for _, p := range paths {
		if !inSimtest(p) {
			writtenFields(pkgs[p].files, pkgs[p].info, written)
		}
	}
	type field struct {
		v    *types.Var
		name string
	}
	var unwritten []field
	for _, p := range paths {
		if !isTarget(p) {
			continue
		}
		for _, f := range pkgs[p].files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if fld.Tag != nil {
						if tag, _ := strconv.Unquote(fld.Tag.Value); reflect.StructTag(tag).Get("json") != "" {
							continue
						}
					}
					for _, id := range fld.Names {
						if v, ok := pkgs[p].info.Defs[id].(*types.Var); ok && id.Name != "_" && !written[v] {
							unwritten = append(unwritten, field{v, v.Pkg().Name() + "." + ts.Name.Name + "." + v.Name()})
						}
					}
				}
				return true
			})
		}
	}
	for _, f := range unwritten {
		if err := add(f.v, f.name, "written"); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out, nil
}

// writtenFields adds to written every struct field the files write: by
// key or position in a composite literal, as the operand of an
// assignment, ++ or --, by taking its address, or by calling a
// pointer-receiver method on it. Writing a field of a struct-valued
// field, or an element of an array-valued one, writes that field too.
// Fields of generic types are recorded as their origin's fields.
func writtenFields(files []*ast.File, info *types.Info, written map[*types.Var]bool) {
	mark := func(v *types.Var) { written[v.Origin()] = true }
	var write func(e ast.Expr)
	write = func(e ast.Expr) {
		for p, ok := e.(*ast.ParenExpr); ok; p, ok = e.(*ast.ParenExpr) {
			e = p.X
		}
		switch e := e.(type) {
		case *ast.SelectorExpr:
			sel := info.Selections[e]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			mark(sel.Obj().(*types.Var))
			if !sel.Indirect() {
				write(e.X)
			}
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(e.X).Underlying().(*types.Array); ok {
				write(e.X)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.DEFINE {
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range []ast.Expr{n.Key, n.Value} {
						if lhs != nil {
							write(lhs)
						}
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X)
				}
			case *ast.SelectorExpr:
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.MethodVal {
					break
				}
				recv := sel.Obj().Type().(*types.Signature).Recv()
				_, ptrRecv := recv.Type().(*types.Pointer)
				_, ptrOperand := info.TypeOf(n.X).Underlying().(*types.Pointer)
				if ptrRecv && !ptrOperand && !sel.Indirect() {
					write(n.X)
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(v)
						}
					} else {
						mark(st.Field(i))
					}
				}
			}
			return true
		})
	}
}

// reachSpan is the source range of a declaration.
type reachSpan struct{ from, to token.Pos }

// implementsMethod reports whether obj is a method through which its
// receiver type satisfies one of ifaces.
func implementsMethod(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := recvNamed(recv.Type())
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func recvName(t types.Type) string {
	if n := recvNamed(t); n != nil {
		return n.Obj().Name()
	}
	return t.String()
}

// parseTree parses the non-test Go files of every package directory
// under root, keyed by import path. Directories named testdata or
// starting with "." or "_" are skipped, as the go tool skips them; a
// nested go.mod starts a new module path.
func parseTree(fset *token.FileSet, root string) (map[string]*reachPkg, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	bases := map[string]string{root: mod} // module root dir -> module path
	pkgs := map[string]*reachPkg{}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		path := ""
		if m, err := modulePath(dir); err == nil {
			bases[dir] = m
			path = m
		} else {
			parent := filepath.Dir(dir)
			for ; bases[parent] == ""; parent = filepath.Dir(parent) {
			}
			rel, err := filepath.Rel(parent, dir)
			if err != nil {
				return err
			}
			path = bases[parent] + "/" + filepath.ToSlash(rel)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		var files []*ast.File
		for _, e := range entries {
			n := e.Name()
			if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, n); err != nil {
				return err
			} else if !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		if len(files) > 0 {
			pkgs[path] = &reachPkg{files: files}
		}
		return nil
	})
	return pkgs, err
}

// modulePath reads the module line of dir/go.mod.
func modulePath(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod has no module line", dir)
}

// treeImporter type-checks the parsed packages on first import and
// hands standard-library imports to the compiler's export data.
type treeImporter struct {
	fset *token.FileSet
	pkgs map[string]*reachPkg
	std  types.Importer
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: im}
	tp, err := conf.Check(path, im.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = tp
	return tp, nil
}
