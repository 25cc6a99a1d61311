package commopt

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// unreachedExempt lists the internal/ declarations the reference check
// lets stand with no non-test reference, by package path (the whole
// package) or by package path and name ("Type.Method" for a method), each
// with its reason. Nothing a test could reach through the product's own
// API belongs here: only an oracle or a validator that tests in more than
// one package compare the product against.
var unreachedExempt = map[string]string{
	"commopt/internal/ref":                  "the language's definition the runtime is held to; imported by tests only (CI checks that)",
	"commopt/internal/trace.ValidateChrome": "the trace-event format the trace and cmd/zplrun tests hold WriteChrome's output to",
}

// TestInternalCodeIsReached fails, naming file:line, on every
// package-level identifier and method in a non-test internal/ file that no
// non-test code outside its own declaration references. A method counts as
// referenced when its receiver implements an interface, of the module or of
// a package the module imports, that has a method of that name: fmt calls
// String and Error through interfaces nothing in the module names. Code only
// tests call belongs in the tests' own files.
func TestInternalCodeIsReached(t *testing.T) {
	l := loadModule(t)

	// Every candidate declaration and the source range it spans: a use
	// inside that range (recursion, a method naming its own receiver type)
	// does not count.
	type decl struct {
		obj      types.Object
		pos, end token.Pos
	}
	var decls []decl
	span := map[types.Object]decl{}
	recvIdents := map[*ast.Ident]bool{}
	for _, p := range l.sorted() {
		internal := strings.HasPrefix(p.pkg.Path(), modulePath+"/internal/")
		for _, f := range p.files {
			for _, d := range f.Decls {
				var found []decl
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								recvIdents[id] = true
							}
							return true
						})
					}
					if d.Name.Name != "init" && d.Name.Name != "main" {
						found = append(found, decl{p.info.Defs[d.Name], d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							found = append(found, decl{p.info.Defs[s.Name], s.Pos(), s.End()})
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									found = append(found, decl{p.info.Defs[n], s.Pos(), s.End()})
								}
							}
						}
					}
				}
				for _, dc := range found {
					span[dc.obj] = dc
					if internal {
						decls = append(decls, dc)
					}
				}
			}
		}
	}
	referenced := map[types.Object]bool{}
	ifaces := map[string][]*types.Interface{} // by method name
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, p := range l.sorted() {
		for id, obj := range p.info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			if d, ok := span[obj]; ok && d.pos <= id.Pos() && id.Pos() < d.end || recvIdents[id] {
				continue
			}
			referenced[obj] = true
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
	}
	for _, p := range l.imported() {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	implements := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces[m.Name()] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	sort.Slice(decls, func(i, j int) bool { return decls[i].pos < decls[j].pos })
	used := map[string]bool{}
	for _, d := range decls {
		if referenced[d.obj] {
			continue
		}
		if m, ok := d.obj.(*types.Func); ok && m.Type().(*types.Signature).Recv() != nil && implements(m) {
			continue
		}
		if key := exemptKey(d.obj); key != "" {
			used[key] = true
			continue
		}
		t.Errorf("%s: %s is referenced by no non-test code", l.fset.Position(d.obj.Pos()), declName(d.obj))
	}
	for key := range unreachedExempt {
		if !used[key] {
			t.Errorf("exemption %s covers nothing unreferenced: delete it", key)
		}
	}
}

const modulePath = "commopt"

// loaded is the module as loadModule type-checked it, once for every test
// that reads it.
var loaded struct {
	once sync.Once
	l    *moduleLoader
	err  error
}

// loadModule type-checks every package of the module from its non-test
// files.
func loadModule(t *testing.T) *moduleLoader {
	t.Helper()
	loaded.once.Do(func() {
		l := newModuleLoader()
		loaded.l, loaded.err = l, filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if _, err := l.load(filepath.ToSlash(filepath.Join(modulePath, path))); err != nil {
				if _, none := err.(*build.NoGoError); !none {
					return err
				}
			}
			return nil
		})
	})
	if loaded.err != nil {
		t.Fatal(loaded.err)
	}
	return loaded.l
}

// observerPkgs are the reports internal/rt folds its event logs into.
var observerPkgs = map[string]bool{
	modulePath + "/internal/trace":    true,
	modulePath + "/internal/critpath": true,
	modulePath + "/internal/metrics":  true,
}

// TestArchitectureRules fails, naming file:line, on every breach of the
// rules that keep one copy of each design decision in the module's
// non-test code:
//
//   - one operator table outside the oracle: the scalar operators live in
//     internal/ir (and, independently, internal/ref), so math.Mod or a
//     case on zpl.KWAND anywhere else is a copy of them;
//   - one front end: ir.Compile parses and lowers for every command, the
//     experiments and the facade, so zpl.Parse, zpl.ParseAll or ir.Lower
//     appear only in internal/ir, in internal/vet/vet.go (which turns each
//     error into a finding and lints the AST) and in bench (which times the
//     layers one by one);
//   - one level table: comm.Levels() is the only way to choose the
//     optimizer, so a comm.Level literal or a write of HoistInvariant
//     outside internal/comm is a second table;
//   - internal/ref, the language's definition the tests hold the runtime
//     to, is imported by tests only;
//   - one observer: in internal/rt only rt.go (Config and Result) and
//     observe.go name trace, critpath or metrics; every other file records
//     into the processor's one event log.
//
// The rules read the type-checked load, so an alias, a dot-import or a
// renamed import breaks a rule as plainly as the package's own name does.
func TestArchitectureRules(t *testing.T) {
	l := loadModule(t)
	under := func(file string, dirs ...string) bool {
		for _, d := range dirs {
			if file == d || strings.HasPrefix(file, d+"/") {
				return true
			}
		}
		return false
	}
	for _, p := range l.sorted() {
		for _, f := range p.files {
			file := filepath.ToSlash(l.fset.Position(f.Pos()).Filename)
			fail := func(n ast.Node, rule string) { t.Errorf("%s: %s", l.fset.Position(n.Pos()), rule) }
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == modulePath+"/internal/ref" && !under(file, "internal/ref") {
					fail(imp, "internal/ref is imported by tests only")
				}
				if observerPkgs[path] && under(file, "internal/rt") && file != "internal/rt/rt.go" && file != "internal/rt/observe.go" {
					fail(imp, "in internal/rt only rt.go and observe.go name "+path+": record into the event log (observe.go)")
				}
			}
			uses := func(e ast.Node, names ...string) bool {
				found := false
				ast.Inspect(e, func(n ast.Node) bool {
					// A package's uses of its own declarations define them.
					if id, ok := n.(*ast.Ident); ok {
						if obj := p.info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg() != p.pkg {
							found = found || slices.Contains(names, obj.Pkg().Path()+"."+obj.Name())
						}
					}
					return !found
				})
				return found
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if !under(file, "internal/ir", "internal/ref") && uses(n, "math.Mod") {
						fail(n, "one operator table outside the oracle: math.Mod belongs to internal/ir")
					}
					if !under(file, "internal/ir", "internal/vet/vet.go", "bench") &&
						uses(n, modulePath+"/internal/zpl.Parse", modulePath+"/internal/zpl.ParseAll", modulePath+"/internal/ir.Lower") {
						fail(n, "one front end: parse and lower through ir.Compile")
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						if !under(file, "internal/ir", "internal/ref") && uses(e, modulePath+"/internal/zpl.KWAND") {
							fail(e, "one operator table outside the oracle: `and` is evaluated in internal/ir")
						}
					}
				case *ast.CompositeLit:
					if named, ok := p.info.TypeOf(n).(*types.Named); ok && !under(file, "internal/comm") &&
						named.Obj().Pkg() != nil && named.Obj().Pkg().Path()+"."+named.Obj().Name() == modulePath+"/internal/comm.Level" {
						fail(n, "one level table: a comm.Level is built by comm.Levels only")
					}
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok && !under(file, "internal/comm") && uses(kv.Key, modulePath+"/internal/comm.HoistInvariant") {
							fail(kv, "one level table: HoistInvariant is set by comm.Levels only")
						}
					}
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						if !under(file, "internal/comm") && uses(e, modulePath+"/internal/comm.HoistInvariant") {
							fail(e, "one level table: HoistInvariant is set by comm.Levels only")
						}
					}
				}
				return true
			})
		}
	}
}

// declName is a declaration's name as the exemption table and the failure
// message spell it: pkg.Name, or pkg.Type.Method for a method.
func declName(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			name = typ.(*types.Named).Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}

// exemptKey returns the key of unreachedExempt that covers obj, or "".
func exemptKey(obj types.Object) string {
	for _, key := range []string{obj.Pkg().Path(), declName(obj)} {
		if _, ok := unreachedExempt[key]; ok {
			return key
		}
	}
	return ""
}

type modulePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleLoader type-checks the module's packages from their non-test
// files, keeping each package's type information, and the standard
// library from source through go/importer.
type moduleLoader struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*modulePkg
}

func newModuleLoader() *moduleLoader {
	fset := token.NewFileSet()
	return &moduleLoader{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*modulePkg{}}
}

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

func (l *moduleLoader) load(path string) (*modulePkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, modulePath)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &modulePkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, 0)
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

// sorted returns the module's packages in path order.
func (l *moduleLoader) sorted() []*modulePkg {
	var out []*modulePkg
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pkg.Path() < out[j].pkg.Path() })
	return out
}

// imported returns every package outside the module that the module's
// packages import, directly or not.
func (l *moduleLoader) imported() []*types.Package {
	seen := map[*types.Package]bool{}
	var out []*types.Package
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		for _, q := range p.Imports() {
			if !seen[q] {
				seen[q] = true
				if _, ours := l.pkgs[q.Path()]; !ours {
					out = append(out, q)
				}
				walk(q)
			}
		}
	}
	for _, p := range l.pkgs {
		walk(p.pkg)
	}
	return out
}
