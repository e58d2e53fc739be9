package lint

import (
	"go/ast"
	"go/types"
)

// WallClock flags wall-clock reads (time.Now, time.Since) and global
// math/rand state in the deterministic packages. Those packages are
// pinned byte-identical across runs, residencies and worker counts; a
// timestamp or an unseeded random draw folded into any computed value
// breaks that silently. Timing telemetry that never feeds a computed
// value carries a //blast:allow wallclock justification; cmd/,
// examples/, internal/experiments and tests are out of scope entirely.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "flags time.Now/time.Since and unseeded math/rand in the " +
		"deterministic packages",
	Run: runWallClock,
}

// seededRandConstructors are the math/rand entry points that take an
// explicit source or seed and are therefore reproducible.
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runWallClock(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, isPkg := lookupObj(pass.TypesInfo, pkgID).(*types.PkgName)
			if !isPkg {
				return true
			}
			switch pn.Imported().Path() {
			case "time":
				if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
					pass.Reportf(sel.Pos(), "time.%s in a deterministic package; wall-clock values must never feed a pinned computation (or annotate telemetry with a justified //blast:allow wallclock)", sel.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if !seededRandConstructors[sel.Sel.Name] {
					pass.Reportf(sel.Pos(), "rand.%s uses the global math/rand state in a deterministic package; draw from an explicitly seeded *rand.Rand (or the stats RNG) instead", sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
}
