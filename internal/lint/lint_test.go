package lint

import (
	"path/filepath"
	"testing"
)

// Per-analyzer golden tests: each fixture seeds the violation the
// analyzer exists for, the fixed idiom it must stay silent on, and a
// justified //blast:allow suppression.

func TestMapOrderGolden(t *testing.T)    { runGolden(t, []*Analyzer{MapOrder}, "maporder") }
func TestSyncErrGolden(t *testing.T)     { runGolden(t, []*Analyzer{SyncErr}, "syncerr") }
func TestSnapshotMutGolden(t *testing.T) { runGolden(t, []*Analyzer{SnapshotMut}, "snapshotmut") }
func TestCtxPollGolden(t *testing.T)     { runGolden(t, []*Analyzer{CtxPoll}, "ctxpoll") }
func TestWallClockGolden(t *testing.T)   { runGolden(t, []*Analyzer{WallClock}, "wallclock") }

// TestDeadAPIGolden runs deadapi over the two fixture packages: the
// reference index spans both, so lib's names app uses stay quiet.
func TestDeadAPIGolden(t *testing.T) {
	runGolden(t, []*Analyzer{DeadAPI}, "deadapi/internal/lib")
	runGolden(t, []*Analyzer{DeadAPI}, "deadapi/app")
}

// TestSmokeMultichecker runs the full suite over one fixture package
// that trips several analyzers at once and exercises every way a
// blast:allow comment can be wrong: missing justification, unknown
// analyzer name, and a stale allow that suppresses nothing. Each of
// those is itself a diagnostic, which is what makes "delete a
// justification" a build break rather than a silent widening.
func TestSmokeMultichecker(t *testing.T) { runGolden(t, All(), "smoke") }

// TestScopeTable pins the runner's scope decisions: which analyzer
// applies to which package (and file) of the real module.
func TestScopeTable(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		pkg      string
		file     string
		want     bool
	}{
		{MapOrder, "blast/internal/stats", "entropy.go", true},
		{MapOrder, "blast/internal/attr", "profile.go", true},
		{MapOrder, "blast/internal/wal", "wal.go", false},
		{MapOrder, "blast/internal/experiments", "tables.go", false},
		{WallClock, "blast/internal/metablocking", "metablocking.go", true},
		{WallClock, "blast/internal/shard", "shard.go", true},
		{WallClock, "blast", "pipeline.go", false},
		{CtxPoll, "blast/internal/prune", "parallel.go", true},
		{CtxPoll, "blast/internal/graph", "csr.go", true},
		{CtxPoll, "blast/internal/attr", "profile.go", false},
		{SyncErr, "blast/internal/wal", "wal.go", true},
		{SyncErr, "blast/internal/store", "store.go", true},
		{SyncErr, "blast/internal/shard", "persist.go", true},
		{SyncErr, "blast/internal/shard", "shard.go", false},
		{SyncErr, "blast", "durable.go", true},
		{SyncErr, "blast", "pipeline.go", false},
		{SyncErr, "blast/blasthttp", "blasthttp.go", true},
		{SyncErr, "blast/cmd/datagen", "main.go", true},
		{SyncErr, "blast/cmd/blastserve", "main.go", true},
		{SyncErr, "blast/internal/experiments", "endtoend.go", false},
		{SnapshotMut, "blast/internal/shard", "shard.go", true},
		{SnapshotMut, "blast/internal/shard", "persist.go", false},
		{SnapshotMut, "blast", "durable.go", true},
		{DeadAPI, "blast/internal/edgelist", "edgelist.go", false},
		{DeadAPI, "blast/internal/store", "store.go", true},
		{DeadAPI, "blast", "pipeline.go", true},
		{DeadAPI, "blast/cmd/blastlint", "main.go", true},
	}
	for _, c := range cases {
		if got := inScope(c.analyzer, c.pkg, filepath.Join("any", "dir", c.file)); got != c.want {
			t.Errorf("inScope(%s, %s, %s) = %v, want %v", c.analyzer.Name, c.pkg, c.file, got, c.want)
		}
	}
}

// TestRepoClean runs the full scoped suite over the real module — the
// same pass CI runs via cmd/blastlint — and demands zero diagnostics.
// Any regression against the determinism or durability contracts turns
// `go test ./internal/lint` red even before the CI step runs.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := DiscoverDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			t.Fatal(err)
		}
		if rel == "." {
			paths = append(paths, "blast")
			continue
		}
		paths = append(paths, "blast/"+filepath.ToSlash(rel))
	}
	loader := NewLoader(map[string]string{"blast": root})
	diags, err := RunDirs(loader, paths, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		t.Errorf("%s:%d:%d: [%s] %s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
}

// TestDeadAPISubsetRun lints one package, as CI's fuzz-smoke legs do:
// deadapi still indexes the whole module, so store's names other
// packages use (CreateFile, DecodeFrame) draw no finding.
func TestDeadAPISubsetRun(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader := NewLoader(map[string]string{"blast": root})
	diags, err := RunDirs(loader, []string{"blast/internal/store"}, []*Analyzer{DeadAPI})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		t.Errorf("%s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
	}
}
