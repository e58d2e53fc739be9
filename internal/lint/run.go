package lint

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// RunPackage executes the analyzers over one loaded package, applies
// the scope table (unless scoped is false, as in golden tests over
// fixture packages) and the allow-comment suppressions, and returns the
// surviving diagnostics sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer, scoped bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			loader:    pkg.loader,
		}
		pass.report = func(d Diagnostic) {
			file := pkg.Fset.Position(d.Pos).Filename
			if scoped && !inScope(a, pkg.Path, file) {
				return
			}
			diags = append(diags, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	allows := collectAllows(pkg.Fset, pkg.Files)
	diags = applySuppressions(pkg.Fset, allows, diags, byName(analyzers))
	sortDiags(pkg.Fset, diags)
	return diags, nil
}

// RunDirs loads every directory as its import path under the mounts and
// runs the full scoped suite, returning all diagnostics with the fileset
// to print them against.
func RunDirs(loader *Loader, paths []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		ds, err := RunPackage(pkg, analyzers, true)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	sortDiags(loader.Fset(), diags)
	return diags, nil
}

// sortDiags orders diagnostics by file, line, column, analyzer.
func sortDiags(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// Print writes diagnostics in the conventional file:line:col form.
func Print(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
}
