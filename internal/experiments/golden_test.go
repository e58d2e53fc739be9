package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blast/internal/datasets"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current run")

// goldenConfig is the scale the paper reproduction is pinned at: every
// experiment below runs in about a second on two cores.
var goldenConfig = Config{Scale: 0.2, Seed: 42}

// paperRun holds the typed rows of the fourteen pinned experiments,
// with every time.Duration field zeroed so the rendering is
// deterministic.
type paperRun struct {
	table3      []Table3Row
	table4      map[string][]CompareRow
	table5      []CompareRow
	table7      map[string][]CompareRow
	fig8        []Figure8Row
	fig9        []Figure9Row
	standard    []StandardRow
	scalability []ScalabilityRow
	baselines   []BaselineRow
	endToEnd    *EndToEndResult
	table2      []datasets.Stats
	table6      []Table6Row
	fig5        []SeriesPoint
	fig5Thresh  float64
	fig10       []Figure10Row
}

var table4Names = []string{"ar1", "ar2", "prd", "mov"}

func runPaper(t *testing.T, cfg Config) *paperRun {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	r := &paperRun{table4: map[string][]CompareRow{}, table7: map[string][]CompareRow{}}
	var err error
	r.table3, err = Table3(cfg, nil)
	must(err)
	for _, name := range table4Names {
		r.table4[name], err = Table4(cfg, name)
		must(err)
		zeroCompare(r.table4[name])
	}
	r.table5, err = Table5(cfg)
	must(err)
	zeroCompare(r.table5)
	for _, name := range datasets.DirtyNames() {
		r.table7[name], err = Table7(cfg, name)
		must(err)
		zeroCompare(r.table7[name])
	}
	r.fig8, err = Figure8(cfg, nil)
	must(err)
	r.fig9, err = Figure9(cfg, nil)
	must(err)
	r.standard, err = StandardBlocking(cfg, nil)
	must(err)
	r.scalability, err = Scalability(cfg, "ar1", nil, 1)
	must(err)
	for i := range r.scalability {
		r.scalability[i].Induction, r.scalability[i].Blocking, r.scalability[i].Meta = 0, 0, 0
	}
	r.baselines, err = Baselines(cfg, "ar1")
	must(err)
	for i := range r.baselines {
		r.baselines[i].BlockTime = 0
	}
	r.endToEnd, err = EndToEnd(cfg, "ar1", 0.3)
	must(err)
	r.endToEnd.OriginalTime, r.endToEnd.BlastOverhead, r.endToEnd.BlastTime = 0, 0, 0
	r.table2, err = Table2(cfg)
	must(err)
	r.table6, err = Table6(cfg)
	must(err)
	for i := range r.table6 {
		r.table6[i].Duration = 0
	}
	r.fig5, r.fig5Thresh = Figure5()
	r.fig10, err = Figure10(cfg)
	must(err)
	return r
}

func zeroCompare(rows []CompareRow) {
	for i := range rows {
		rows[i].Overhead = 0
	}
}

// render lays the run out with the package's own Render functions, in
// the order and under the titles blastbench prints them.
func (r *paperRun) render() string {
	var b strings.Builder
	section := func(title, body string) { fmt.Fprintf(&b, "== %s ==\n%s\n", title, body) }
	section("Table 3", RenderTable3(r.table3))
	// RenderCompare titles its own tables.
	for _, name := range table4Names {
		fmt.Fprintln(&b, RenderCompare("Table 4 "+name, r.table4[name]))
	}
	fmt.Fprintln(&b, RenderCompare("Table 5 dbp (with LSH-starred rows)", r.table5))
	for _, name := range datasets.DirtyNames() {
		fmt.Fprintln(&b, RenderCompare("Table 7 "+name+" (dirty ER)", r.table7[name]))
	}
	section("Figure 8", RenderFigure8(r.fig8))
	section("Figure 9", RenderFigure9(r.fig9))
	section("Standard Blocking", RenderStandard(r.standard))
	section("Scalability", RenderScalability("ar1", r.scalability))
	section("Baselines", RenderBaselines("ar1", r.baselines))
	section("End to end", r.endToEnd.Render())
	section("Table 2", RenderTable2(r.table2))
	section("Table 6", RenderTable6(r.table6))
	section("Figure 5", RenderFigure5(r.fig5, r.fig5Thresh))
	section("Figure 10", RenderFigure10(r.fig10))
	return b.String()
}

// TestPaperReproductionGolden pins the non-time columns of the paper's
// Tables 2 to 7 and Figures 5, 8, 9 and 10, the Standard Blocking
// comparison, the scalability series, the blocking baselines and the
// end-to-end run against testdata/paper.golden, and asserts the paper's
// headline orderings that hold at this scale on the typed rows. After an
// intended change to the reproduced numbers, rewrite the golden with
//
//	go test ./internal/experiments -run TestPaperReproductionGolden -update
func TestPaperReproductionGolden(t *testing.T) {
	r := runPaper(t, goldenConfig)
	got := r.render()
	path := filepath.Join("testdata", "paper.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("paper reproduction differs from %s (run with -update if the change is intended):\n%s",
			path, lineDiff(string(want), got))
	}

	// Filtering raises PQ in every Table 3 row.
	for _, row := range r.table3 {
		if row.FiltPQ <= row.BasePQ {
			t.Errorf("Table 3 %s/%s: filtering did not raise PQ: %v -> %v", row.Dataset, row.Variant, row.BasePQ, row.FiltPQ)
		}
	}
	// Table 5: Blast has the best F1 of every traditional and supervised
	// meta-blocking row.
	var blastF1 float64
	for _, row := range r.table5 {
		if row.Method == "Blast" {
			blastF1 = row.F1
		}
	}
	for _, row := range r.table5 {
		if strings.HasPrefix(row.Method, "wnp") || strings.HasPrefix(row.Method, "cnp") || row.Method == "sup. MB" {
			if row.F1 >= blastF1 {
				t.Errorf("Table 5: %s F1 %.3f >= Blast F1 %.3f", row.Method, row.F1, blastF1)
			}
		}
	}
	// Figure 8: full BLAST beats classical WNP on PQ on every dataset.
	pq := map[string]map[string]float64{}
	for _, row := range r.fig8 {
		if pq[row.Dataset] == nil {
			pq[row.Dataset] = map[string]float64{}
		}
		pq[row.Dataset][row.Variant] = row.PQ
	}
	for _, name := range datasets.CleanCleanNames() {
		if bch, wnp := pq[name]["bch"], pq[name]["wnp"]; bch <= wnp {
			t.Errorf("Figure 8 %s: bch PQ %v <= wnp PQ %v", name, bch, wnp)
		}
	}
	// Figure 10: PC never rises as the LSH threshold does.
	if !Monotone(r.fig10, 0) {
		t.Errorf("Figure 10: PC rises with the LSH threshold:\n%s", RenderFigure10(r.fig10))
	}
	// Section 4.1: on the fully mappable datasets LMI reproduces the
	// manual alignment, so Standard Blocking matches it exactly.
	for _, row := range r.standard {
		if row.LMI.PC != row.Standard.PC || row.LMI.PQ != row.Standard.PQ {
			t.Errorf("Standard Blocking %s: LMI PC/PQ %v/%v, standard %v/%v",
				row.Dataset, row.LMI.PC, row.LMI.PQ, row.Standard.PC, row.Standard.PQ)
		}
	}
}

// lineDiff lists the lines that differ between want and got, by line
// number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}
