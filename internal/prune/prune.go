// Package prune implements the edge-pruning schemes of graph-based
// meta-blocking (Section 2.2 of the paper): the four classic schemes —
// WEP, CEP, WNP and CNP, the node-centric ones in both their redefined
// (retain if either endpoint keeps the edge) and reciprocal (both
// endpoints) variants (Papadakis et al., EDBT'16) — plus BLAST's
// weight-based node pruning with its edge-count-independent threshold
// theta_i = M_i / c and unique per-edge threshold (theta_u + theta_v) / d
// (Section 3.3.2).
//
// Each scheme is written once, as a decision (stream.go): over a
// weighted graph.CSR — a whole graph, or one party's owned rows of a
// graph several parties hold (partition.go) — it returns the predicate
// that decides every entry. The collectors (rows.go) run the predicate
// over the graph into the retained pairs, in canonical (u, v) order, or
// into the rows an index serves from. Zero- and negative-weight edges
// are never retained: a zero weight means the weighting scheme found no
// evidence for the pair.
package prune

// Mode selects how node-centric schemes resolve the two thresholds an
// edge is subject to (Figure 7 of the paper).
type Mode int

const (
	// Redefined retains an edge that satisfies the criterion of at least
	// one of its endpoints (wnp1/cnp1 in the paper's tables).
	Redefined Mode = iota
	// Reciprocal retains an edge only if it satisfies the criterion of
	// both endpoints (wnp2/cnp2).
	Reciprocal
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Reciprocal {
		return "reciprocal"
	}
	return "redefined"
}

// CEPBudget is CEP's default comparison budget (k <= 0): half the total
// number of block memberships (sum |B_i| / 2), as in the meta-blocking
// literature. Block counts are global even in an owned-rows graph, so
// every party resolves the same budget.
func CEPBudget(blockCounts []int32) int {
	total := 0
	for _, c := range blockCounts {
		total += int(c)
	}
	return total / 2
}

// CNPBudget is CNP's default per-node budget (k <= 0): the average
// number of blocks per profile, max(1, round(sum |B_i| / |V|)) over the
// profiles that appear in at least one block. Returns 0 when no profile
// does.
func CNPBudget(blockCounts []int32) int {
	total := 0
	active := 0
	for _, c := range blockCounts {
		total += int(c)
		if c > 0 {
			active++
		}
	}
	if active == 0 {
		return 0
	}
	k := (total + active/2) / active
	if k < 1 {
		k = 1
	}
	return k
}
