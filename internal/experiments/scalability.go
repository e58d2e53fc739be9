package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blast"
)

// ScalabilityRow is one scale point of the overhead-vs-volume series:
// how the pipeline's phase times and output quality evolve as the
// dataset grows (the t_o discussion of Section 4).
type ScalabilityRow struct {
	Scale       float64
	Profiles    int
	Comparisons int64 // ||B|| of the cleaned block collection
	Induction   time.Duration
	Blocking    time.Duration
	Meta        time.Duration
	PC, PQ      float64
}

// Scalability runs BLAST on one benchmark at increasing scales and
// reports the phase timings. workers follows the blast.Options contract
// (0 = one per CPU, 1 = serial, n = exactly n); pass 1 for a
// machine-independent serial baseline.
func Scalability(cfg Config, dataset string, multipliers []float64, workers int) ([]ScalabilityRow, error) {
	if len(multipliers) == 0 {
		multipliers = []float64{0.5, 1, 2, 4}
	}
	var out []ScalabilityRow
	for _, m := range multipliers {
		sub := cfg
		sub.Scale = cfg.Scale * m
		ds, err := sub.load(dataset)
		if err != nil {
			return nil, err
		}
		opt := blast.DefaultOptions()
		opt.Workers = workers
		p, err := blast.NewPipeline(opt)
		if err != nil {
			return nil, err
		}
		res, err := p.Run(context.Background(), ds)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalabilityRow{
			Scale:       sub.Scale,
			Profiles:    ds.NumProfiles(),
			Comparisons: res.Blocks.AggregateCardinality(),
			Induction:   res.InductionTime,
			Blocking:    res.BlockTime,
			Meta:        res.MetaTime,
			PC:          res.Quality.PC,
			PQ:          res.Quality.PQ,
		})
	}
	return out, nil
}

// RenderScalability formats the series.
func RenderScalability(dataset string, rows []ScalabilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scalability on %s\n", dataset)
	fmt.Fprintf(&b, "%8s %9s %12s %10s %10s %10s %7s %8s\n",
		"scale", "profiles", "||B||", "induction", "blocking", "meta", "PC(%)", "PQ(%)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.3f %9d %12d %10s %10s %10s %7.2f %8.4f\n",
			r.Scale, r.Profiles, r.Comparisons,
			r.Induction.Round(time.Millisecond), r.Blocking.Round(time.Millisecond),
			r.Meta.Round(time.Millisecond), r.PC*100, r.PQ*100)
	}
	return b.String()
}
