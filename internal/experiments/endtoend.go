package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blast"
	"blast/internal/match"
	"blast/internal/model"
	"blast/internal/text"
)

// EndToEndResult quantifies the Section 4.2.2 argument: the time spent
// restructuring a block collection is repaid by the comparisons it
// removes downstream.
type EndToEndResult struct {
	Dataset string

	// Original is the comparison count and matcher wall time of resolving
	// the cleaned block collection directly.
	OriginalComparisons int64
	OriginalTime        time.Duration
	OriginalF1          float64

	// Blast is the same for the BLAST-restructured collection, plus the
	// meta-blocking overhead it took to get there.
	BlastComparisons int64
	BlastOverhead    time.Duration
	BlastTime        time.Duration
	BlastF1          float64
}

// EndToEnd runs the full pipeline plus the Jaccard matcher on a dataset,
// comparing entity-resolution cost with and without BLAST.
func EndToEnd(cfg Config, dataset string, simThreshold float64) (*EndToEndResult, error) {
	ds, err := cfg.load(dataset)
	if err != nil {
		return nil, err
	}
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		return nil, err
	}
	res, err := p.Run(context.Background(), ds)
	if err != nil {
		return nil, err
	}
	matcher := match.NewJaccard(ds, text.NewTokenizer())

	// Original: all distinct pairs of the cleaned block collection.
	var originalPairs []model.IDPair
	for k := range res.Blocks.DistinctPairs() {
		originalPairs = append(originalPairs, model.PairFromKey(k))
	}
	t0 := time.Now()
	origRes := match.Resolve(matcher, originalPairs, simThreshold)
	origTime := time.Since(t0)
	_, _, origF1 := match.Evaluate(origRes.Matches, ds.Truth)

	t1 := time.Now()
	blastRes := match.Resolve(matcher, res.Pairs, simThreshold)
	blastTime := time.Since(t1)
	_, _, blastF1 := match.Evaluate(blastRes.Matches, ds.Truth)

	return &EndToEndResult{
		Dataset:             dataset,
		OriginalComparisons: int64(len(originalPairs)),
		OriginalTime:        origTime,
		OriginalF1:          origF1,
		BlastComparisons:    int64(len(res.Pairs)),
		BlastOverhead:       res.Overhead(),
		BlastTime:           blastTime,
		BlastF1:             blastF1,
	}, nil
}

// Render formats the end-to-end comparison.
func (r *EndToEndResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "end-to-end ER on %s (Jaccard matcher)\n", r.Dataset)
	fmt.Fprintf(&b, "  original blocks: %d comparisons, match time %s, F1 %.3f\n",
		r.OriginalComparisons, r.OriginalTime.Round(time.Millisecond), round2(r.OriginalF1))
	fmt.Fprintf(&b, "  blast blocks:    %d comparisons, match time %s (+%s overhead), F1 %.3f\n",
		r.BlastComparisons, r.BlastTime.Round(time.Millisecond),
		r.BlastOverhead.Round(time.Millisecond), round2(r.BlastF1))
	if r.BlastComparisons > 0 {
		fmt.Fprintf(&b, "  comparison reduction: %.1fx\n",
			float64(r.OriginalComparisons)/float64(r.BlastComparisons))
	}
	return b.String()
}
