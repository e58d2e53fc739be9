package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// DeadAPI flags an exported identifier of an internal/ package, or an
// unexported package-level declaration anywhere, that no non-test file
// of the module or of bench/e2e references, whatever packages were asked
// for. A method is live when its receiver implements fmt.Stringer, error
// or an interface that types a loaded expression.
var DeadAPI = &Analyzer{
	Name: "deadapi",
	Doc: "flags exported identifiers of internal packages and unexported " +
		"package-level declarations that no non-test file references",
	Run: runDeadAPI,
}

func runDeadAPI(pass *Pass) error {
	l := pass.loader
	if err := l.indexRefs(); err != nil {
		return err
	}
	internal := strings.Contains("/"+pass.Pkg.Path()+"/", "/internal/")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			var names []*ast.Ident
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || d.Name.Name != "init" && (d.Name.Name != "main" || pass.Pkg.Name() != "main") {
					names = append(names, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name)
					case *ast.ValueSpec:
						names = append(names, s.Names...)
					}
				}
				if d.Tok == token.CONST && slices.ContainsFunc(names, func(id *ast.Ident) bool { return l.live(pass.TypesInfo.Defs[id]) }) {
					names = nil // one enumeration: its values hang on every member's position
				}
			}
			for _, id := range names {
				if id.Name != "_" && (internal || !id.IsExported()) && !l.live(pass.TypesInfo.Defs[id]) {
					pass.Reportf(id.Pos(), "%s is referenced by no non-test file of the module; delete it", id.Name)
				}
			}
		}
	}
	return nil
}

// indexRefs loads every package under the mounts and bench/e2e, once per
// loader, and indexes each object their code names outside a method
// receiver and each interface type of their expressions.
func (l *Loader) indexRefs() error {
	if l.used != nil {
		return nil
	}
	fmtPkg, err := l.std.ImportFrom("fmt", "", 0)
	if err != nil {
		return err
	}
	l.used, l.ifaces = map[types.Object]bool{}, map[*types.Interface]bool{}
	l.addIface(fmtPkg.Scope().Lookup("Stringer").Type())
	l.addIface(types.Universe.Lookup("error").Type())
	for _, m := range l.mounts {
		dirs, err := DiscoverDirs(m.dir)
		if err != nil {
			return err
		}
		if e2e := filepath.Join(m.dir, "bench", "e2e"); dirExists(e2e) {
			dirs = append(dirs, e2e)
		}
		for _, dir := range dirs {
			rel, _ := filepath.Rel(m.dir, dir) // dir was found under m.dir
			pkg, err := l.Load(path.Join(m.prefix, filepath.ToSlash(rel)))
			if err != nil {
				return err
			}
			l.addRefs(pkg)
		}
	}
	return nil
}

// addRefs indexes one package. Uses also records the Sel of every
// selector, so Selections adds nothing to it.
func (l *Loader) addRefs(pkg *Package) {
	recv := map[*ast.Ident]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range pkg.Info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a method of an instantiated generic type
		}
		l.used[obj] = l.used[obj] || !recv[id]
	}
	for _, tv := range pkg.Info.Types {
		l.addIface(tv.Type)
	}
}

func (l *Loader) addIface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		l.ifaces[it] = true
	}
}

// live reports whether obj is referenced, or is a method its receiver,
// T or *T, needs to implement an indexed interface.
func (l *Loader) live(obj types.Object) bool {
	if obj == nil || l.used[obj] {
		return true
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	for it := range l.ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, obj.Pkg(), obj.Name()); m != nil &&
			(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
			return true
		}
	}
	return false
}
