package blast

// A `go test -run` or `-bench` pattern that matches nothing still
// passes, so a CI step that names tests or benchmarks by pattern goes
// stale silently when one is renamed or deleted. This test holds every
// -run and -bench alternative and every fuzz-smoke target of the CI
// workflow to the functions that exist.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const ciWorkflow = ".github/workflows/ci.yml"

// parseDir parses the Go files of one package directory: its _test.go
// files when tests is set, the others otherwise.
func parseDir(t *testing.T, dir string, tests bool) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// testFuncs returns the names of the Test, Fuzz and Benchmark functions
// declared in the _test.go files of one package directory.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	for _, f := range parseDir(t, dir, true) {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz") || strings.HasPrefix(fn.Name.Name, "Benchmark")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// packageDirs expands one go test package argument into directories:
// "./..." is every directory of this module (nested modules and
// testdata excluded), anything else names one directory.
func packageDirs(t *testing.T, arg string) []string {
	t.Helper()
	if arg != "./..." {
		return []string{filepath.Clean(arg)}
	}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// shellWords splits one command line into words, honoring single quotes.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord, quoted := false, false
	for _, r := range line {
		switch {
		case r == '\'':
			quoted, inWord = !quoted, true
		case (r == ' ' || r == '\t') && !quoted:
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// TestCIRunFiltersMatchTests fails when a -run alternative of a CI
// go test command matches no Test or Fuzz function in the packages the
// command names, a -bench alternative no Benchmark function, or when a
// fuzz-smoke target is missing from its package.
func TestCIRunFiltersMatchTests(t *testing.T) {
	raw, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string][]string{}
	funcsIn := func(dir string) []string {
		if _, ok := funcs[dir]; !ok {
			funcs[dir] = testFuncs(t, dir)
		}
		return funcs[dir]
	}
	commands, fuzzTargets := 0, 0
	var target string
	for n, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			continue
		}
		// The fuzz-smoke matrix lists "- target: X" then "package: Y".
		if v, ok := strings.CutPrefix(trimmed, "- target: "); ok {
			target = v
			continue
		}
		if v, ok := strings.CutPrefix(trimmed, "package: "); ok && target != "" {
			fuzzTargets++
			found := false
			for _, dir := range packageDirs(t, v) {
				for _, name := range funcsIn(dir) {
					found = found || name == target
				}
			}
			if !found || !strings.HasPrefix(target, "Fuzz") {
				t.Errorf("%s:%d: fuzz-smoke target %s is not a fuzz function of %s", ciWorkflow, n+1, target, v)
			}
			target = ""
			continue
		}
		i := strings.Index(trimmed, "go test ")
		if i < 0 {
			continue
		}
		words := shellWords(trimmed[i:])
		var run, bench string
		var pkgs []string
		for k := 2; k < len(words); k++ {
			w := words[k]
			switch {
			case (w == "-run" || w == "-bench") && k+1 < len(words):
				if w == "-run" {
					run = words[k+1]
				} else {
					bench = words[k+1]
				}
				k++
			case strings.HasPrefix(w, "-run="):
				run = strings.TrimPrefix(w, "-run=")
			case strings.HasPrefix(w, "-bench="):
				bench = strings.TrimPrefix(w, "-bench=")
			case strings.HasPrefix(w, "-"):
				// Flags that take a separate value.
				if !strings.Contains(w, "=") && (w == "-cpu" || w == "-fuzz" || w == "-fuzztime" ||
					w == "-benchtime" || w == "-covermode" || w == "-coverprofile" || w == "-timeout" || w == "-count") {
					k++
				}
			case strings.HasPrefix(w, "."):
				pkgs = append(pkgs, w)
			}
		}
		for _, filter := range []struct{ flag, pattern string }{{"-run", run}, {"-bench", bench}} {
			if filter.pattern == "" || filter.pattern == "^$" {
				continue
			}
			commands++
			if len(pkgs) == 0 {
				t.Errorf("%s:%d: go test %s %q names no package", ciWorkflow, n+1, filter.flag, filter.pattern)
				continue
			}
			// -bench selects Benchmark functions; -run the others.
			var names []string
			for _, p := range pkgs {
				for _, dir := range packageDirs(t, p) {
					for _, name := range funcsIn(dir) {
						if strings.HasPrefix(name, "Benchmark") == (filter.flag == "-bench") {
							names = append(names, name)
						}
					}
				}
			}
			top, _, _ := strings.Cut(filter.pattern, "/")
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s:%d: %s alternative %q: %v", ciWorkflow, n+1, filter.flag, alt, err)
					continue
				}
				matched := false
				for _, name := range names {
					matched = matched || re.MatchString(name)
				}
				if !matched {
					t.Errorf("%s:%d: %s alternative %q matches nothing in %v", ciWorkflow, n+1, filter.flag, alt, pkgs)
				}
			}
		}
	}
	if commands == 0 || fuzzTargets == 0 {
		t.Fatalf("%s: found %d filtered go test commands and %d fuzz targets; the workflow parse is broken", ciWorkflow, commands, fuzzTargets)
	}
}

// exportedNames returns the exported top-level identifiers declared in
// the non-test Go files of one package directory, parsed, not compiled.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	add := func(id *ast.Ident) {
		if id.IsExported() {
			names[id.Name] = true
		}
	}
	for _, f := range parseDir(t, dir, false) {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name)
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
	}
	return names
}

// TestREADMENamesExist fails when a ```go block of README.md names a
// qualified blast.X or blasthttp.X that is not an exported top-level
// identifier of that package. Methods called on variables are not
// checked: that needs the samples compiled.
func TestREADMENamesExist(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]map[string]bool{"blast": exportedNames(t, "."), "blasthttp": exportedNames(t, "blasthttp")}
	ref := regexp.MustCompile(`\b(blast|blasthttp)\.([A-Z]\w*)`)
	inGo, refs := false, 0
	for n, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inGo = !inGo && trimmed == "```go"
			continue
		}
		if !inGo {
			continue
		}
		for _, m := range ref.FindAllStringSubmatch(line, -1) {
			refs++
			if !pkgs[m[1]][m[2]] {
				t.Errorf("README.md:%d: %s.%s is not an exported top-level identifier of package %s", n+1, m[1], m[2], m[1])
			}
		}
	}
	if refs == 0 {
		t.Fatal("README.md: no blast.X or blasthttp.X in a ```go block; the README parse is broken")
	}
}
