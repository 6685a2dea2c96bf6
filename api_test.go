package ecosched_test

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
	"sort"
	"strings"
	"sync"
	"testing"
)

// modulePath is the import path of the repository root (go.mod).
const modulePath = "ecosched"

// apiAllowlist names the exported functions and methods that may stay
// without a caller in a non-test file, each with its reason. Keys are the
// package path relative to the module root, then the function or
// Type.Method. TestExportedAPIHasProductionCaller fails on an entry that is
// gone or has gained a caller, so the list can only shrink, and on a reason
// outside allowlistReasons.
var apiAllowlist = map[string]string{
	// The root package is the library's public face; its callers are the
	// users of the library (example_test.go shows them).
	".": "root facade",

	// Reference implementations the production paths are pinned against.
	"internal/dp.ComputeLimitsDense":           "DESIGN.md §8 oracle",
	"internal/dp.MinimizeCostDense":            "DESIGN.md §8 oracle",
	"internal/dp.MinimizeTimeDense":            "DESIGN.md §8 oracle",
	"internal/gridsim.Grid.RebuildVacantSlots": "DESIGN.md §8 oracle",

	// Fixture constructors and lookups the tests of several packages share.
	"internal/job.Batch.ByName":                "cross-package test helper",
	"internal/metrics.Snapshot.Counter":        "cross-package test helper",
	"internal/metrics.Snapshot.Gauge":          "cross-package test helper",
	"internal/metrics.Snapshot.HistogramCount": "cross-package test helper",
	"internal/resource.MustNewPool":            "cross-package test helper",
	"internal/sim.Money.ApproxEq":              "cross-package test helper",
	"internal/slot.List.TotalTime":             "cross-package test helper",
	"internal/slot.List.Validate":              "cross-package test helper",
	"internal/slot.Window.MaxSlotPrice":        "cross-package test helper",
	"internal/trace.Recorder.Events":           "cross-package test helper",
}

// allowlistReasons is the closed set of reasons an export may stand without a
// production caller. A cross-package test helper is one the tests of at least
// two other packages call.
var allowlistReasons = map[string]bool{
	"root facade":               true,
	"DESIGN.md §8 oracle":       true,
	"cross-package test helper": true,
}

// TestExportedAPIHasProductionCaller keeps test-only API from regrowing:
// every exported function, and every exported method of an exported type,
// declared in a non-test file of the module must be referenced from a
// non-test file outside its own declaration. The benchmark harness (bench/,
// a nested module) counts as a caller. A method also counts as referenced
// when it implements a method of an interface declared in the module, or is
// a String or Error method. Exceptions are listed, with reasons, in
// apiAllowlist.
func TestExportedAPIHasProductionCaller(t *testing.T) {
	fset, pkgs := loadModule(t)

	exports := collectExports(fset, pkgs)
	ifaces := moduleInterfaces(pkgs)
	referenced := make(map[string]bool)
	for _, p := range pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(fn.Origin())
			if e, ok := exports[key]; ok && (id.Pos() < e.start || id.Pos() >= e.end) {
				referenced[key] = true
			}
		}
	}
	for key, e := range exports {
		if e.fn.Name() == "String" || e.fn.Name() == "Error" || implementsModuleInterface(e.fn, ifaces) {
			referenced[key] = true
		}
	}

	var missing []string
	for key, e := range exports {
		if referenced[key] {
			continue
		}
		if _, ok := apiAllowlist[key]; ok {
			continue
		}
		if _, ok := apiAllowlist[e.pkgKey]; ok {
			continue
		}
		missing = append(missing, fmt.Sprintf("%s (%s)", key, e.pos))
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported %s has no caller in a non-test file: delete it, move it into the test that uses it, or give it a production caller", m)
	}

	for key, reason := range apiAllowlist {
		if !allowlistReasons[reason] {
			t.Errorf("allowlist entry %s has reason %q: the only reasons are root facade, DESIGN.md §8 oracle and cross-package test helper", key, reason)
		}
		if e, ok := exports[key]; ok {
			if referenced[key] {
				t.Errorf("allowlist entry %s (%s, declared at %s) now has a caller in a non-test file: remove it", key, reason, e.pos)
			}
			continue
		}
		// Otherwise the entry names a package; it stays valid while the
		// package exports something only the allowlist keeps.
		covers := false
		for k, e := range exports {
			covers = covers || (e.pkgKey == key && !referenced[k])
		}
		if !covers {
			t.Errorf("allowlist entry %q (%s) names neither an unreferenced export nor a package holding one: remove it", key, reason)
		}
	}
}

// configSuffixes are the name endings of the option structs whose fields
// TestConfigFieldsHaveProductionSetter checks.
var configSuffixes = []string{"Config", "Options", "Spec", "Policy"}

// configAllowlist names the option fields that may stay without a setter in a
// non-test file, each with its reason; the only reason is configReason.
var configAllowlist = map[string]string{
	// An operator's choice of durability against speed (ROADMAP item 8):
	// no study or bench workload turns fsync on.
	"internal/durable.Options.Sync": configReason,
	// A library user's choice to record scheduling decisions, through the
	// facade's NewTraceRecorder; no command or bench workload reads them.
	"internal/metasched.Config.Trace": configReason,
}

// configReason is the one reason an option field may stand without a
// production setter: whoever deploys the program chooses it, and it changes
// no scheduling decision and no output the program prints.
const configReason = "deployment setting"

// TestConfigFieldsHaveProductionSetter keeps options that no entry point
// varies from regrowing: every exported field of an exported struct type whose
// name ends in Config, Options, Spec or Policy, declared in a non-test file of
// the module, must be assigned in a non-test file, either as the key of a
// composite literal or on the left of an assignment. The benchmark harness
// (bench/) counts as a setter. A value only one caller sets is a constant;
// exceptions are listed in configAllowlist.
func TestConfigFieldsHaveProductionSetter(t *testing.T) {
	fset, pkgs := loadModule(t)
	set := make(map[*types.Var]bool)
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var own *types.Struct
				if fd, ok := d.(*ast.FuncDecl); ok {
					if recv := receiverType(p.info.Defs[fd.Name].(*types.Func)); recv != nil {
						own, _ = recv.Underlying().(*types.Struct)
					}
				}
				markFieldsSet(d, p.info, own, set)
			}
		}
	}

	seen := make(map[string]bool)
	for _, p := range pkgs {
		if p.pkg.Path() == modulePath+"/bench" {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !tn.Exported() || !hasConfigSuffix(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				fld := st.Field(i)
				if !fld.Exported() {
					continue
				}
				key := relPath(p.pkg.Path()) + "." + name + "." + fld.Name()
				if _, ok := configAllowlist[key]; ok {
					seen[key] = true
					if set[fld] {
						t.Errorf("allowlist entry %s now has a setter in a non-test file: remove it", key)
					}
					continue
				}
				if !set[fld] {
					t.Errorf("option %s (%s) is set by no non-test file: make it a constant at the value every caller uses, or give it a production setter", key, fset.Position(fld.Pos()))
				}
			}
		}
	}
	for key, reason := range configAllowlist {
		if reason != configReason {
			t.Errorf("allowlist entry %s has reason %q: the only reason is %q", key, reason, configReason)
		}
		if !seen[key] {
			t.Errorf("allowlist entry %s names no exported option field: remove it", key)
		}
	}
}

// markFieldsSet records in set every struct field that node assigns: a
// composite-literal key, or a field selected on the left of an assignment or
// increment (every field of a chain a.B.C counts). A method does not set the
// fields of its own receiver type (own): filling in its defaults is not a
// caller choosing a value.
func markFieldsSet(node ast.Node, info *types.Info, own *types.Struct, set map[*types.Var]bool) {
	mark := func(id *ast.Ident) {
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !v.IsField() {
			return
		}
		for i := 0; own != nil && i < own.NumFields(); i++ {
			if own.Field(i) == v {
				return
			}
		}
		set[v.Origin()] = true
	}
	ast.Inspect(node, func(n ast.Node) bool {
		var targets []ast.Expr
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				mark(id)
			}
		case *ast.AssignStmt:
			targets = n.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{n.X}
		}
		for _, e := range targets {
			for {
				sel, ok := e.(*ast.SelectorExpr)
				if !ok {
					break
				}
				mark(sel.Sel)
				e = sel.X
			}
		}
		return true
	})
}

func hasConfigSuffix(name string) bool {
	for _, s := range configSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

var (
	moduleOnce sync.Once
	moduleFset *token.FileSet
	modulePkgs []*sourcePackage
	moduleErr  error
)

// loadModule type-checks every package of the module and of the benchmark
// harness once per test binary; the API guards share the result.
func loadModule(t *testing.T) (*token.FileSet, []*sourcePackage) {
	t.Helper()
	moduleOnce.Do(func() {
		l := newModuleLoader()
		moduleFset = l.fset
		moduleErr = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if !hasSourceFiles(path) {
				return nil
			}
			p, err := l.load(importPath(path))
			if err != nil {
				return err
			}
			modulePkgs = append(modulePkgs, p)
			return nil
		})
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleFset, modulePkgs
}

// sourcePackage is one package of the module, type-checked from its non-test
// files.
type sourcePackage struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// moduleLoader type-checks the module's packages, and the benchmark
// harness's, from source. Other imports (the standard library) go through
// the source importer.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*sourcePackage
}

func newModuleLoader() *moduleLoader {
	// The module uses no cgo: type-check the standard library's pure-Go
	// files so that no C toolchain is needed.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &moduleLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: make(map[string]*sourcePackage)}
}

// Import implements types.Importer.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *moduleLoader) load(path string) (*sourcePackage, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := filepath.Join(".", filepath.FromSlash(strings.TrimPrefix(path, modulePath)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &sourcePackage{info: &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}}
	for _, e := range entries {
		if !isSourceFile(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.pkg, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

func isSourceFile(e fs.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

func hasSourceFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if isSourceFile(e) {
			return true
		}
	}
	return false
}

// importPath maps a directory relative to the module root to its import
// path; bench/ is the nested module ecosched/bench.
func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// export is one exported function or method under test. A use between start
// and end lies in its own declaration (a recursive call) and is no caller.
type export struct {
	fn         *types.Func
	pkgKey     string
	pos        token.Position
	start, end token.Pos
}

// collectExports returns the exported functions, and the exported methods of
// exported types, declared in the module's packages (bench/ only calls).
func collectExports(fset *token.FileSet, pkgs []*sourcePackage) map[string]export {
	out := make(map[string]export)
	for _, p := range pkgs {
		if p.pkg.Path() == modulePath+"/bench" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if recv := receiverType(fn); recv != nil && !recv.Obj().Exported() {
					continue
				}
				out[funcKey(fn)] = export{fn: fn, pkgKey: relPath(p.pkg.Path()), pos: fset.Position(fd.Pos()),
					start: fd.Pos(), end: fd.End()}
			}
		}
	}
	return out
}

// receiverType returns the named receiver type of a method, or nil for a
// function.
func receiverType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// funcKey names a function "pkg.Func" and a method "pkg.Type.Method", pkg
// relative to the module root.
func funcKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	prefix := relPath(fn.Pkg().Path())
	if recv := receiverType(fn); recv != nil {
		return prefix + "." + recv.Obj().Name() + "." + fn.Name()
	}
	return prefix + "." + fn.Name()
}

func relPath(path string) string {
	if path == modulePath {
		return "."
	}
	return strings.TrimPrefix(path, modulePath+"/")
}

// moduleInterfaces returns the package-level interface types the module
// declares.
func moduleInterfaces(pkgs []*sourcePackage) []*types.Interface {
	var out []*types.Interface
	for _, p := range pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				out = append(out, iface)
			}
		}
	}
	return out
}

// implementsModuleInterface reports whether the method fn is how its
// receiver type satisfies a method of one of ifaces.
func implementsModuleInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := receiverType(fn)
	if recv == nil || recv.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range ifaces {
		if !types.Implements(recv, iface) && !types.Implements(types.NewPointer(recv), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}
