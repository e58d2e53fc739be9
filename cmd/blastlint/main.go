// Command blastlint runs the project's static-analysis suite — six
// analyzers that machine-check the determinism and durability
// invariants and that the module carries only code it runs (see
// internal/lint and the README "Static analysis" section):
//
//	maporder     order-sensitive work inside for-range over a map
//	syncerr      discarded errors on the durability path
//	snapshotmut  writes to shard.Snapshot outside constructor/decode
//	ctxpoll      adjacency loops with no cancellation poll
//	wallclock    time.Now/time.Since/global rand in deterministic code
//	deadapi      internal API and unexported declarations no non-test file uses
//
// Usage:
//
//	blastlint [-list] [packages]
//
// Packages default to ./... resolved against the enclosing module.
// Diagnostics print as file:line:col: [analyzer] message; the exit
// status is 2 when any diagnostic survives suppression, 1 on operational
// failure, 0 on a clean tree. Suppress a finding with a justified
// comment on (or directly above) the flagged line:
//
//	//blast:allow <analyzer> -- <justification>
//
// An allow comment without a justification — or one that suppresses
// nothing — is itself an error, so the exception inventory stays
// honest.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"blast/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: blastlint [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := moduleRoot()
	if err != nil {
		fatal(err)
	}
	paths, err := resolvePatterns(root, flag.Args())
	if err != nil {
		fatal(err)
	}
	loader := lint.NewLoader(map[string]string{"blast": root})
	diags, err := lint.RunDirs(loader, paths, analyzers)
	if err != nil {
		fatal(err)
	}
	if len(diags) > 0 {
		lint.Print(os.Stdout, loader.Fset(), diags)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blastlint:", err)
	os.Exit(1)
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// resolvePatterns maps package patterns onto import paths under the
// module. Supported: ./... (default), dir/... subtrees, and plain
// relative or blast-qualified package paths.
func resolvePatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "." || pat == "./" {
			pat = ""
		}
		pat = strings.TrimPrefix(pat, "./")
		pat = strings.TrimPrefix(pat, "blast/")
		if pat == "blast" {
			pat = ""
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		if recursive {
			dirs, err := lint.DiscoverDirs(base)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(importPathFor(root, d))
			}
			continue
		}
		if fi, err := os.Stat(base); err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("package pattern %q does not resolve to a directory", pat)
		}
		add(importPathFor(root, base))
	}
	sort.Strings(out)
	return out, nil
}

// importPathFor maps a directory under the module root onto its import
// path.
func importPathFor(root, dir string) string {
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		return "blast"
	}
	return "blast/" + filepath.ToSlash(rel)
}
