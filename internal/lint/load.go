package lint

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
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("blast/internal/prune").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Fset  *token.FileSet

	loader *Loader
}

// A Loader parses and type-checks packages without the go/packages
// machinery (which would drag in x/tools): import paths under a mounted
// prefix resolve to directories inside the mount, everything else is
// delegated to the standard library's source importer, which compiles
// std packages from GOROOT. One loader shares a fileset and a package
// cache across every load.
type Loader struct {
	fset   *token.FileSet
	mounts []mount
	std    types.ImporterFrom
	pkgs   map[string]*loadEntry
	// deadapi's reference index, built on its first pass.
	used   map[types.Object]bool
	ifaces map[*types.Interface]bool
}

type mount struct {
	prefix string // import-path prefix, e.g. "blast"
	dir    string // directory it maps to
}

type loadEntry struct {
	pkg *Package
	err error
	// loading marks an in-flight load so import cycles fail instead of
	// recursing forever.
	loading bool
}

// NewLoader returns a loader with the given import-path mounts. For the
// repo itself a single {"blast": moduleRoot} mount suffices; golden
// tests mount their testdata/src directory at "" so fixtures can import
// stub dependency packages by any path.
func NewLoader(mounts map[string]string) *Loader {
	fset := token.NewFileSet()
	l := &Loader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*loadEntry{},
	}
	for prefix, dir := range mounts {
		l.mounts = append(l.mounts, mount{prefix: prefix, dir: dir})
	}
	// Longest prefix wins, so a "" catch-all mount never shadows "blast".
	sort.Slice(l.mounts, func(i, j int) bool { return len(l.mounts[i].prefix) > len(l.mounts[j].prefix) })
	return l
}

// Fset returns the loader's shared fileset.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// dirFor resolves an import path against the mounts; ok is false when
// the path belongs to the standard library (or is simply not mounted).
func (l *Loader) dirFor(path string) (string, bool) {
	for _, m := range l.mounts {
		if m.prefix == "" {
			// Catch-all: anything that is not resolvable as std. Std
			// detection by first path element: std paths never contain a
			// dot before the first slash and are present under GOROOT —
			// cheaper and robust enough here: try the mount only if the
			// directory exists.
			if dirExists(filepath.Join(m.dir, path)) {
				return filepath.Join(m.dir, path), true
			}
			continue
		}
		if path == m.prefix {
			return m.dir, true
		}
		if strings.HasPrefix(path, m.prefix+"/") {
			return filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.prefix+"/"))), true
		}
	}
	return "", false
}

func dirExists(dir string) bool {
	fi, err := os.Stat(dir)
	return err == nil && fi.IsDir()
}

// Load type-checks the package at the given import path (which must
// resolve through a mount) and returns it, cached.
func (l *Loader) Load(path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return e.pkg, e.err
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: %q does not resolve through any mount", path)
	}
	e := &loadEntry{loading: true}
	l.pkgs[path] = e
	e.pkg, e.err = l.loadDir(path, dir)
	e.loading = false
	return e.pkg, e.err
}

// loadDir parses and type-checks one directory as the package at path.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: &loaderImporter{l: l}}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info, Fset: l.fset, loader: l}, nil
}

// loaderImporter routes mounted import paths back through the loader
// and everything else to the source importer.
type loaderImporter struct {
	l *Loader
}

func (i *loaderImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, "", 0)
}

func (i *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := i.l.dirFor(path); ok {
		pkg, err := i.l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return i.l.std.ImportFrom(path, srcDir, mode)
}

// DiscoverDirs returns the directories under root holding at least one
// buildable non-test Go file, sorted, skipping testdata, hidden
// directories and nested modules.
func DiscoverDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		if hasBuildableGo(p) {
			dirs = append(dirs, p)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasBuildableGo reports whether dir holds at least one buildable
// non-test Go file. Directories whose files are all excluded (build
// tags) are simply not discovered.
func hasBuildableGo(dir string) bool {
	bp, err := build.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}
