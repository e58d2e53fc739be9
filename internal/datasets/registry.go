package datasets

import (
	"fmt"

	"blast/internal/model"
)

// Generator builds a dataset at the given scale with the given seed.
type Generator func(scale float64, seed uint64) *model.Dataset

// CleanCleanNames lists the clean-clean benchmarks in paper order
// (Table 2).
func CleanCleanNames() []string { return []string{"ar1", "ar2", "prd", "mov", "dbp"} }

// DirtyNames lists the dirty benchmarks in paper order (Table 7).
func DirtyNames() []string { return []string{"census", "cora", "cddb"} }

// ByName returns the generator of a benchmark dataset.
func ByName(name string) (Generator, error) {
	switch name {
	case "ar1":
		return AR1, nil
	case "ar2":
		return AR2, nil
	case "prd":
		return PRD, nil
	case "mov":
		return MOV, nil
	case "dbp":
		return DBP, nil
	case "census":
		return Census, nil
	case "cora":
		return Cora, nil
	case "cddb":
		return CDDB, nil
	case "paper-fig1":
		return func(float64, uint64) *model.Dataset { return PaperExample() }, nil
	default:
		return nil, fmt.Errorf("datasets: unknown dataset %q (have %v + %v)",
			name, CleanCleanNames(), DirtyNames())
	}
}

// Stats summarizes a dataset in the shape of the paper's Table 2 row:
// |E1|-|E2|, |A1|-|A2|, nvp and |D_E|.
type Stats struct {
	Name   string
	Kind   model.Kind
	E1, E2 int
	A1, A2 int
	NVP1   int
	NVP2   int
	Dups   int
}

// Describe computes the Table 2 statistics of a dataset.
func Describe(ds *model.Dataset) Stats {
	s := Stats{
		Name: ds.Name,
		Kind: ds.Kind,
		E1:   ds.E1.Len(),
		A1:   ds.E1.NumAttributes(),
		NVP1: ds.E1.NVP(),
		Dups: ds.Truth.Size(),
	}
	if ds.Kind == model.CleanClean {
		s.E2 = ds.E2.Len()
		s.A2 = ds.E2.NumAttributes()
		s.NVP2 = ds.E2.NVP()
	}
	return s
}

// String renders the stats as a Table 2 style row.
func (s Stats) String() string {
	if s.Kind == model.CleanClean {
		return fmt.Sprintf("%-6s |E|=%d-%d |A|=%d-%d nvp=%d-%d |D|=%d",
			s.Name, s.E1, s.E2, s.A1, s.A2, s.NVP1, s.NVP2, s.Dups)
	}
	return fmt.Sprintf("%-6s |E|=%d |A|=%d nvp=%d |D|=%d", s.Name, s.E1, s.A1, s.NVP1, s.Dups)
}

// ManualAlignment returns the ground-truth schema alignment of a fully
// mappable generated dataset, in the map shape blocking.SchemaKey
// expects. It inspects the known generator schemas; datasets without a
// 1:1 alignment return ok = false.
func ManualAlignment(name string) (map[[2]string]string, bool) {
	var pairs [][2]string
	switch name {
	case "ar1":
		pairs = [][2]string{
			{"title", "name"}, {"authors", "author list"},
			{"venue", "booktitle"}, {"year", "date"},
		}
	case "ar2":
		pairs = [][2]string{
			{"title", "title"}, {"authors", "author"},
			{"venue", "publication"}, {"year", "year"},
		}
	case "prd":
		pairs = [][2]string{
			{"name", "title"}, {"description", "features"},
			{"manufacturer", "brand"}, {"price", "cost"},
		}
	default:
		return nil, false
	}
	align := make(map[[2]string]string, 2*len(pairs))
	for i, p := range pairs {
		id := fmt.Sprintf("f%d", i)
		align[[2]string{"0", p[0]}] = id
		align[[2]string{"1", p[1]}] = id
	}
	return align, true
}
