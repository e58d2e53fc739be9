package experiments

import (
	"strings"
	"testing"

	"blast/internal/datasets"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Scale: 0.25, Seed: 42} }

func TestTable2(t *testing.T) {
	rows, err := Table2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(datasets.CleanCleanNames()) {
		t.Fatalf("rows = %d, want %d", len(rows), len(datasets.CleanCleanNames()))
	}
	// ar1 keeps the 4-4 attribute shape at any scale.
	if rows[0].Name != "ar1" || rows[0].A1 != 4 || rows[0].A2 != 4 {
		t.Errorf("ar1 row = %+v", rows[0])
	}
	if out := RenderTable2(rows); !strings.Contains(out, "ar1") {
		t.Error("render missing ar1")
	}
}

func TestTable3ShapesAndRender(t *testing.T) {
	rows, err := Table3(tiny(), []string{"ar1", "prd"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 datasets x {T, L}
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		// Block Purging + Filtering must shrink ||B|| and raise PQ.
		if r.FiltCard > r.BaseCard {
			t.Errorf("%s/%s: filtering grew ||B||: %d -> %d", r.Dataset, r.Variant, r.BaseCard, r.FiltCard)
		}
		if r.FiltPQ < r.BasePQ {
			t.Errorf("%s/%s: filtering lowered PQ: %v -> %v", r.Dataset, r.Variant, r.BasePQ, r.FiltPQ)
		}
		// PC stays high through the cleaning workflow.
		if r.FiltPC < r.BasePC-0.05 {
			t.Errorf("%s/%s: filtering destroyed PC: %v -> %v", r.Dataset, r.Variant, r.BasePC, r.FiltPC)
		}
		if r.BasePC < 0.9 {
			t.Errorf("%s/%s: baseline PC = %v, want high (redundancy-positive blocking)", r.Dataset, r.Variant, r.BasePC)
		}
	}
	// The L variant must not have lower PQ than T at equal stage.
	var tRow, lRow *Table3Row
	for i := range rows {
		if rows[i].Dataset == "ar1" && rows[i].Variant == "T" {
			tRow = &rows[i]
		}
		if rows[i].Dataset == "ar1" && rows[i].Variant == "L" {
			lRow = &rows[i]
		}
	}
	if lRow.BaseCard > tRow.BaseCard {
		t.Errorf("LMI should not increase ||B||: T=%d L=%d", tRow.BaseCard, lRow.BaseCard)
	}
	if out := RenderTable3(rows); !strings.Contains(out, "ar1") {
		t.Error("render missing dataset")
	}
}

func TestTable4ComparativeStructure(t *testing.T) {
	rows, err := Table4(tiny(), "ar1")
	if err != nil {
		t.Fatal(err)
	}
	byMethod := make(map[string]CompareRow)
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	for _, m := range []string{"wnp1 T", "wnp1 L", "wnp2 T", "wnp2 L", "cnp1 T", "cnp1 L",
		"cnp1 Lchi2h", "cnp2 T", "cnp2 L", "cnp2 Lchi2h", "sup. MB", "Blast"} {
		if _, ok := byMethod[m]; !ok {
			t.Fatalf("method %q missing; have %v", m, rows)
		}
	}
	bl := byMethod["Blast"]
	// The paper's headline: BLAST beats traditional WNP in PQ by a large
	// factor with dPC >= -6%.
	for _, m := range []string{"wnp1 T", "wnp1 L", "wnp2 T", "wnp2 L"} {
		w := byMethod[m]
		if bl.PQ <= w.PQ {
			t.Errorf("Blast PQ %v should beat %s PQ %v", bl.PQ, m, w.PQ)
		}
		if dpc := (bl.PC - w.PC) / w.PC; dpc < -0.06 {
			t.Errorf("dPC(%s, Blast) = %v, want >= -6%%", m, dpc)
		}
	}
	// chi2h-weighted CNP must hold PC at least as well as plain CNP2 L.
	if byMethod["cnp2 Lchi2h"].PC < byMethod["cnp2 L"].PC-0.02 {
		t.Errorf("cnp2 chi2h PC %v < cnp2 L PC %v", byMethod["cnp2 Lchi2h"].PC, byMethod["cnp2 L"].PC)
	}
	if out := RenderCompare("ar1", rows); !strings.Contains(out, "Blast") {
		t.Error("render missing Blast row")
	}
}

func TestTable5IncludesLSHRows(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 42} // dbp is the heavy one
	rows, err := Table5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var blast, blastStar *CompareRow
	for i := range rows {
		switch rows[i].Method {
		case "Blast":
			blast = &rows[i]
		case "Blast*":
			blastStar = &rows[i]
		}
	}
	if blast == nil || blastStar == nil {
		t.Fatal("Blast/Blast* rows missing")
	}
	// LSH must preserve quality within a small tolerance (Section 4.2.2:
	// "identical results in terms of PC and PQ").
	if d := blastStar.PC - blast.PC; d < -0.05 || d > 0.05 {
		t.Errorf("LSH changed PC: %v vs %v", blastStar.PC, blast.PC)
	}
}

func TestTable6LSHThresholdSweep(t *testing.T) {
	rows, err := Table6(Config{Scale: 0.15, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Label != "-" {
		t.Fatal("first row should be exhaustive LMI")
	}
	for _, r := range rows {
		if r.Clusters == 0 {
			t.Errorf("row %s found no clusters", r.Label)
		}
	}
	for _, r := range rows[1:] {
		if r.Threshold <= 0 || r.Threshold >= 1 {
			t.Errorf("row %s threshold %v out of range", r.Label, r.Threshold)
		}
	}
	// Exhaustive LMI is a token-posting walk, not a merge of every
	// attribute pair, so at this attribute-space size MinHash signing
	// alone outweighs it and the exhaustive row is no longer the slow
	// one. What the sweep still shows is the LSH trade: a higher
	// threshold proposes fewer pairs and costs less (several-fold
	// between the two ends, so the comparison is safe as a timing).
	if first, last := rows[1], rows[len(rows)-1]; last.Duration >= first.Duration {
		t.Errorf("highest-threshold LSH (%v) not faster than lowest-threshold LSH (%v)", last.Duration, first.Duration)
	}
	// Thresholds increase along the sweep.
	for i := 2; i < len(rows); i++ {
		if rows[i].Threshold <= rows[i-1].Threshold {
			t.Errorf("thresholds not increasing: %v then %v", rows[i-1].Threshold, rows[i].Threshold)
		}
	}
	if out := RenderTable6(rows); !strings.Contains(out, "LSH") {
		t.Error("render missing LSH rows")
	}
}

func TestTable7DirtyStructure(t *testing.T) {
	rows, err := Table7(tiny(), "census")
	if err != nil {
		t.Fatal(err)
	}
	byMethod := make(map[string]CompareRow)
	for _, r := range rows {
		byMethod[r.Method] = r
	}
	bl, ok := byMethod["Blast"]
	if !ok {
		t.Fatal("Blast row missing")
	}
	// Table 7 shape: BLAST achieves higher PQ than wnp1 (recall can dip).
	if w := byMethod["wnp1"]; bl.PQ <= w.PQ {
		t.Errorf("Blast PQ %v should beat wnp1 PQ %v on census", bl.PQ, w.PQ)
	}
}

func TestFigure5Shape(t *testing.T) {
	curve, th := Figure5()
	if len(curve) < 40 {
		t.Fatalf("curve too sparse: %d points", len(curve))
	}
	if th < 0.4 || th > 0.6 {
		t.Errorf("threshold = %v, want ~0.5 for r=5,b=30", th)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Y < curve[i-1].Y-1e-9 {
			t.Fatal("S-curve not monotone")
		}
	}
	if curve[0].Y != 0 || curve[len(curve)-1].Y < 0.999 {
		t.Error("curve endpoints wrong")
	}
	if out := RenderFigure5(curve, th); !strings.Contains(out, "S-curve") {
		t.Error("render broken")
	}
}

func TestFigure8AblationStructure(t *testing.T) {
	rows, err := Figure8(tiny(), []string{"ar1", "prd"})
	if err != nil {
		t.Fatal(err)
	}
	get := func(ds, v string) Figure8Row {
		for _, r := range rows {
			if r.Dataset == ds && r.Variant == v {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", ds, v)
		return Figure8Row{}
	}
	for _, ds := range []string{"ar1", "prd"} {
		wnp := get(ds, "wnp")
		bch := get(ds, "bch")
		chi := get(ds, "chi")
		wsh := get(ds, "wsh")
		// Full BLAST beats classical WNP on PQ (the figure's headline).
		if bch.PQ <= wnp.PQ {
			t.Errorf("%s: bch PQ %v <= wnp PQ %v", ds, bch.PQ, wnp.PQ)
		}
		// PC stays comparable across variants (within 10%).
		for _, v := range []Figure8Row{chi, wsh, bch} {
			if v.PC < wnp.PC-0.10 {
				t.Errorf("%s/%s: PC %v collapsed vs wnp %v", ds, v.Variant, v.PC, wnp.PC)
			}
		}
	}
	if out := RenderFigure8(rows); !strings.Contains(out, "bch") {
		t.Error("render missing variant")
	}
}

func TestFigure9LMIvsAC(t *testing.T) {
	rows, err := Figure9(tiny(), []string{"ar1", "prd"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Both inductions keep PC high; the figure's claim is comparable
		// PC with LMI's PQ advantage on small datasets.
		if r.PCLMI < 0.85 || r.PCAC < 0.85 {
			t.Errorf("%s: PC LMI=%v AC=%v, want both high", r.Dataset, r.PCLMI, r.PCAC)
		}
	}
	if out := RenderFigure9(rows); !strings.Contains(out, "dPQ") {
		t.Error("render broken")
	}
}

func TestFigure10ThresholdSweep(t *testing.T) {
	rows, err := Figure10(Config{Scale: 0.1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("sweep too short: %d", len(rows))
	}
	// Low thresholds keep PC high; the highest thresholds degrade it.
	if rows[0].PC < 0.5 {
		t.Errorf("lowest threshold PC = %v, want >= 0.5", rows[0].PC)
	}
	last := rows[len(rows)-1]
	if last.PC > rows[0].PC {
		t.Errorf("PC should not improve at high thresholds: %v -> %v", rows[0].PC, last.PC)
	}
	if out := RenderFigure10(rows); !strings.Contains(out, "threshold") {
		t.Error("render broken")
	}
}

func TestMonotoneHelper(t *testing.T) {
	rows := []Figure10Row{{Threshold: 0.1, PC: 0.9}, {Threshold: 0.5, PC: 0.9}, {Threshold: 0.8, PC: 0.5}}
	if !Monotone(rows, 0.01) {
		t.Error("monotone rows misreported")
	}
	rows[2].PC = 0.95
	if Monotone(rows, 0.01) {
		t.Error("non-monotone rows misreported")
	}
}

func TestEndToEndSavesComparisons(t *testing.T) {
	res, err := EndToEnd(tiny(), "ar1", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlastComparisons >= res.OriginalComparisons {
		t.Errorf("BLAST should cut comparisons: %d vs %d", res.BlastComparisons, res.OriginalComparisons)
	}
	if res.BlastF1 < res.OriginalF1-0.1 {
		t.Errorf("BLAST F1 %v collapsed vs %v", res.BlastF1, res.OriginalF1)
	}
	if !strings.Contains(res.Render(), "reduction") {
		t.Error("render broken")
	}
}

func TestLoadUnknownDataset(t *testing.T) {
	if _, err := tiny().load("nope"); err == nil {
		t.Error("unknown dataset should error")
	}
	bad := Config{Scale: 0, Seed: 1}
	if _, err := bad.load("ar1"); err == nil {
		t.Error("zero scale should error")
	}
}

func TestScalabilitySeries(t *testing.T) {
	rows, err := Scalability(Config{Scale: 0.1, Seed: 42}, "ar1", []float64{1, 2, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Profiles <= rows[i-1].Profiles {
			t.Errorf("profiles not growing: %d then %d", rows[i-1].Profiles, rows[i].Profiles)
		}
		if rows[i].Comparisons <= rows[i-1].Comparisons {
			t.Errorf("comparisons not growing with scale")
		}
	}
	for _, r := range rows {
		if r.PC < 0.9 {
			t.Errorf("scale %v: PC = %v", r.Scale, r.PC)
		}
	}
	if out := RenderScalability("ar1", rows); !strings.Contains(out, "scalability") {
		t.Error("render broken")
	}
	// Default multipliers and unknown dataset paths.
	if _, err := Scalability(Config{Scale: 0.05, Seed: 1}, "nope", nil, 0); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestBaselinesComposeWithMetaBlocking(t *testing.T) {
	rows, err := Baselines(Config{Scale: 0.3, Seed: 42}, "ar1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 blocking families", len(rows))
	}
	byName := make(map[string]BaselineRow)
	for _, r := range rows {
		byName[r.Blocking] = r
		if r.PC < 0 || r.PC > 1 || r.PQ < 0 || r.PQ > 1 {
			t.Errorf("%s: metrics out of range: %+v", r.Blocking, r)
		}
	}
	// The redundancy-positive token families keep high recall through
	// meta-blocking on the easy ar1 workload.
	for _, name := range []string{"token", "token+lmi", "qgram3", "stem"} {
		if byName[name].PC < 0.9 {
			t.Errorf("%s PC = %v, want >= 0.9", name, byName[name].PC)
		}
	}
	if out := RenderBaselines("ar1", rows); !strings.Contains(out, "canopy") {
		t.Error("render missing a family")
	}
	if _, err := Baselines(Config{Scale: 0.3, Seed: 1}, "nope"); err == nil {
		t.Error("unknown dataset should error")
	}
}

// TestStandardBlockingMatchesLMI reproduces the Section 4.1 claim: on
// fully mappable datasets BLAST over LMI and BLAST over schema-based
// Standard Blocking achieve (nearly) the same PC and PQ, because the
// induced partitioning equals the manual alignment.
func TestStandardBlockingMatchesLMI(t *testing.T) {
	rows, err := StandardBlocking(Config{Scale: 0.4, Seed: 42}, []string{"ar1", "prd"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if d := r.LMI.PC - r.Standard.PC; d < -0.02 || d > 0.02 {
			t.Errorf("%s: PC differs: LMI %.4f vs standard %.4f", r.Dataset, r.LMI.PC, r.Standard.PC)
		}
		// PQ within 20%% relative: the glue cluster gives LMI slightly
		// different token scoping than the strict manual alignment.
		if r.Standard.PQ > 0 {
			rel := (r.LMI.PQ - r.Standard.PQ) / r.Standard.PQ
			if rel < -0.2 || rel > 0.2 {
				t.Errorf("%s: PQ differs: LMI %.4f vs standard %.4f", r.Dataset, r.LMI.PQ, r.Standard.PQ)
			}
		}
	}
	if out := RenderStandard(rows); !strings.Contains(out, "standard") {
		t.Error("render broken")
	}
	if _, err := StandardBlocking(Config{Scale: 0.4, Seed: 1}, []string{"mov"}); err == nil {
		t.Error("partially mappable dataset should error")
	}
}
