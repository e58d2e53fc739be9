package edgelist

// The reference's own hand-checked expectations live beside the kernels
// it is an oracle for (the tests of internal/graph, internal/weights and
// internal/prune run every one of them through this package); what is
// pinned here is its place in the module.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

const (
	selfPath = "blast/internal/edgelist"
	// moduleRoot is the module's root directory as seen from this one.
	moduleRoot = "../.."
)

// TestReferenceIsTestOnly walks every Go file of the module (bench/e2e's
// own module included) and fails on any non-test file that imports this
// package, and on anything this package imports of the code it is the
// oracle for.
func TestReferenceIsTestOnly(t *testing.T) {
	allowed := map[string]bool{"blast/internal/blocking": true, "blast/internal/model": true}
	seen := 0
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || (strings.HasPrefix(name, ".") && path != moduleRoot) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		seen++
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		own := filepath.Dir(path) == filepath.Join(moduleRoot, "internal", "edgelist")
		for _, imp := range f.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			if ipath == selfPath {
				t.Errorf("%s imports %s: the edge-list reference is for tests only", path, selfPath)
			}
			if own && strings.HasPrefix(ipath, "blast") && !allowed[ipath] {
				t.Errorf("%s imports %s: the reference may import only blocking and model", path, ipath)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < 100 {
		t.Fatalf("walked %d Go files from %s: not the module root", seen, moduleRoot)
	}
}
