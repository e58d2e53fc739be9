package stats

import "fmt"

// Contingency is the 2x2 contingency table of Table 1 in the paper. It
// describes the joint frequency distribution of two profiles pu, pv over a
// block collection:
//
//	         pv       !pv
//	pu      N11       N12     | N1x
//	!pu     N21       N22     | N2x
//	        Nx1       Nx2     | N
//
// N11 is the number of blocks containing both profiles, N1x the number of
// blocks containing pu (with or without pv), Nx1 the number containing pv,
// and N the total number of blocks.
type Contingency struct {
	N11 float64 // blocks with both pu and pv (|B_uv|)
	N1x float64 // blocks with pu (|B_u|)
	Nx1 float64 // blocks with pv (|B_v|)
	N   float64 // total blocks (|B|)
}

// NewContingency builds the table from the observable block statistics:
// common blocks, per-profile block counts and the size of the block
// collection.
func NewContingency(common, blocksU, blocksV, totalBlocks int) Contingency {
	return Contingency{
		N11: float64(common),
		N1x: float64(blocksU),
		Nx1: float64(blocksV),
		N:   float64(totalBlocks),
	}
}

// Cells returns the four observed cell counts n11, n12, n21, n22.
func (c Contingency) Cells() (n11, n12, n21, n22 float64) {
	n11 = c.N11
	n12 = c.N1x - c.N11
	n21 = c.Nx1 - c.N11
	n22 = c.N - c.N1x - c.Nx1 + c.N11
	return
}

// ChiSquared returns Pearson's chi-squared statistic of the table:
//
//	chi2 = sum_ij (n_ij - mu_ij)^2 / mu_ij,   mu_ij = n_i+ * n_+j / n
//
// measuring the divergence between the observed co-occurrence of the two
// profiles and the expectation under independence. BLAST uses the
// statistic as an association strength, not as a hypothesis test
// (Section 3.3.1).
//
// Note: the formula as typeset in the paper omits the square on the
// numerator; the standard Pearson statistic (squared) is what chi-squared
// denotes and what the reference implementation computes, so that is what
// we implement. Degenerate tables (a zero marginal) yield 0.
func (c Contingency) ChiSquared() float64 {
	n11, n12, n21, n22 := c.Cells()
	r1 := n11 + n12
	r2 := n21 + n22
	c1 := n11 + n21
	c2 := n12 + n22
	n := c.N
	if n <= 0 || r1 <= 0 || r2 <= 0 || c1 <= 0 || c2 <= 0 {
		return 0
	}
	chi := 0.0
	add := func(obs, rowSum, colSum float64) {
		mu := rowSum * colSum / n
		if mu > 0 {
			d := obs - mu
			chi += d * d / mu
		}
	}
	add(n11, r1, c1)
	add(n12, r1, c2)
	add(n21, r2, c1)
	add(n22, r2, c2)
	return chi
}

// PositiveAssociation returns the chi-squared statistic when the two
// profiles co-occur MORE than independence predicts (n11 > mu11), and 0
// otherwise. Meta-blocking weights must capture the likelihood of a
// match, i.e. positive association only: with few blocks a pair can
// diverge from independence by co-occurring *less* than expected, and the
// two-sided statistic would score such anti-associated pairs highly. (At
// realistic block counts mu11 is near zero and any edge is positively
// associated, so the one-sided and two-sided statistics coincide on real
// data; the distinction matters on small examples such as the paper's
// Figure 1.)
func (c Contingency) PositiveAssociation() float64 {
	if c.N <= 0 {
		return 0
	}
	// Saturated table: every block contains both profiles. The chi2 of a
	// 2x2 table is bounded by N, and the perfect-association tables
	// n11 = N1x = Nx1 < N attain exactly N; extend by continuity so that
	// total co-occurrence (which only tiny collections can produce) is
	// scored as maximal association rather than 0.
	if c.N11 >= c.N {
		return c.N
	}
	mu11 := c.N1x * c.Nx1 / c.N
	if c.N11 <= mu11 {
		return 0
	}
	return c.ChiSquared()
}

// String renders the table for debugging.
func (c Contingency) String() string {
	n11, n12, n21, n22 := c.Cells()
	return fmt.Sprintf("[[%g %g][%g %g]] n=%g", n11, n12, n21, n22, c.N)
}
