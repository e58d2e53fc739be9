// Package lint is blastlint: a project-specific static-analysis suite
// that machine-checks the determinism and durability invariants the
// differential test matrix can only probe at runtime. Every fast path in
// this repo is pinned byte-identical to the reference batch path; the
// invariants that make that true — ordered float reduction, immutable
// shared snapshots, checked fsyncs on the WAL path, edge-segment
// cancellation polls — are encoded here as compile-time checks so a
// violation is a build break, not a runtime lottery (the PR 4
// EntropyFromCounts map-order bug is the precedent).
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is built on the standard library
// alone — go/parser, go/types and a source importer — so the module
// keeps its zero-dependency contract. Should the tree ever vendor
// x/tools, the analyzers port by swapping the Pass type.
//
// Suppression: a diagnostic is silenced by a comment on the same line or
// the line immediately above:
//
//	//blast:allow <analyzer> -- <justification>
//
// The justification is mandatory: an allow comment without one (or one
// naming an unknown analyzer, or one that suppresses nothing) is itself
// an error, so exceptions stay justified and current.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// An Analyzer describes one named analysis and its entry point.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant it encodes.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass presents one package to an analyzer: syntax, type information
// and a sink for diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	loader    *Loader
	// report receives every diagnostic; the runner wraps it with scope
	// filtering and allow-comment suppression.
	report func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, positioned in the fileset of the pass
// that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// All returns the blastlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		MapOrder,
		SyncErr,
		SnapshotMut,
		CtxPoll,
		WallClock,
		DeadAPI,
	}
}

// byName resolves analyzer names for allow-comment validation.
func byName(analyzers []*Analyzer) map[string]bool {
	m := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		m[a.Name] = true
	}
	return m
}

// deterministicPkgs are the packages whose outputs are pinned
// byte-identical across runs, worker counts and residencies. Nondeterminism
// inside them is a correctness bug class, not a style issue.
var deterministicPkgs = map[string]bool{
	"blast/internal/attr":         true,
	"blast/internal/stats":        true,
	"blast/internal/weights":      true,
	"blast/internal/prune":        true,
	"blast/internal/graph":        true,
	"blast/internal/metablocking": true,
	"blast/internal/shard":        true,
}

// inScope reports whether analyzer a applies to the file at filename in
// the package at pkgPath. The scope table lives here, outside the
// analyzers, so golden tests can exercise the pure analysis logic on
// fixture packages regardless of their paths.
func inScope(a *Analyzer, pkgPath, filename string) bool {
	base := filepath.Base(filename)
	switch a.Name {
	case "maporder", "wallclock":
		// Deterministic packages only: cmd/, examples/, experiments and
		// tests may time, log and randomize freely.
		return deterministicPkgs[pkgPath]
	case "ctxpoll":
		// The edge-segment polling contract PR 5 established spans the
		// CSR iteration surfaces; partitioned sharding added shard's
		// snapshot pair enumeration to them.
		return pkgPath == "blast/internal/prune" || pkgPath == "blast/internal/graph" ||
			pkgPath == "blast/internal/shard"
	case "syncerr":
		// The durability path: a dropped error here silently voids the
		// "ids are a durability receipt" contract. The commands and the
		// HTTP front end are output paths with the same failure mode — a
		// "wrote"/200 claim over bytes that never reached their sink.
		switch {
		case pkgPath == "blast/internal/wal":
			return true
		case pkgPath == "blast/internal/store":
			// Spill segments: a dropped write/sync error here would let a
			// paged read later serve bytes that never reached the disk.
			return true
		case pkgPath == "blast/internal/shard" && base == "persist.go":
			return true
		case pkgPath == "blast" && base == "durable.go":
			return true
		case pkgPath == "blast/blasthttp":
			return true
		case strings.HasPrefix(pkgPath, "blast/cmd/"):
			return true
		}
		return false
	case "snapshotmut":
		// Everywhere except the decode/constructor file, which builds
		// snapshots in place before publication.
		return !(pkgPath == "blast/internal/shard" && base == "persist.go")
	case "deadapi":
		// The reference package tests compare the engine against.
		return pkgPath != "blast/internal/edgelist"
	}
	return true
}
