// Package datasets provides the workloads of the reproduction: the
// paper's Figure 1 worked example, synthetic generators that reproduce
// the shape of the evaluation benchmarks of Table 2 (clean-clean: ar1,
// ar2, prd, mov, dbp) and Table 7 (dirty: census, cora, cddb), and CSV
// loaders for external data.
//
// The original benchmark files are not redistributable and cannot be
// downloaded in this offline environment; the generators reproduce their
// published structure — entity counts (scalable), attribute counts,
// schema mappability (1:1 vs 0:n), name-value-pair volumes, duplicate
// counts and token-level noise — so every algorithm exercises the same
// code paths on data with the same qualitative characteristics. See
// DESIGN.md ("Substitutions") for the mapping.
package datasets

import "blast/internal/model"

// PaperExample returns the four-profile entity collection of Figure 1 of
// the paper, as a dirty ER dataset. Token Blocking over it yields exactly
// the 12 blocks of Figure 1b, and the derived blocking graph matches
// Figure 1c (p1-p3 and p2-p4 are the matching pairs).
//
// Global ids: p1=0, p2=1, p3=2, p4=3.
func PaperExample() *model.Dataset {
	e := model.NewCollection("figure1")

	p1 := model.Profile{ID: "p1"}
	p1.Add("Name", "John Abram Jr")
	p1.Add("profession", "car seller")
	p1.Add("year", "1985")
	p1.Add("Addr.", "Main street")
	e.Append(p1)

	p2 := model.Profile{ID: "p2"}
	p2.Add("FirstName", "Ellen")
	p2.Add("SecondName", "Smith")
	p2.Add("year", "85")
	p2.Add("occupation", "retail")
	p2.Add("mail", "Abram st. 30 NY")
	e.Append(p2)

	p3 := model.Profile{ID: "p3"}
	p3.Add("name1", "Jon Jr")
	p3.Add("name2", "Abram")
	p3.Add("birth year", "85")
	p3.Add("job", "car retail")
	p3.Add("Loc", "Main st.")
	e.Append(p3)

	p4 := model.Profile{ID: "p4"}
	p4.Add("full name", "Ellen Smith")
	p4.Add("b. date", "May 10 1985")
	p4.Add("work info", "retailer")
	p4.Add("loc", "Abram street NY")
	e.Append(p4)

	g := model.NewGroundTruth()
	g.Add(0, 2) // p1 ~ p3 (John Abram Jr / Jon Jr Abram)
	g.Add(1, 3) // p2 ~ p4 (Ellen Smith)

	return &model.Dataset{Name: "paper-fig1", Kind: model.Dirty, E1: e, Truth: g}
}
