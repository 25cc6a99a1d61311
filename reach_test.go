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
	"sort"
	"strings"
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
	l := newModuleLoader()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
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
	if err != nil {
		t.Fatal(err)
	}

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
