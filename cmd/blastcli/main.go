// Command blastcli runs the BLAST pipeline over CSV entity collections
// and emits the retained comparisons.
//
// Input collections are long-form CSV triples (id, attribute, value), as
// produced by cmd/datagen. With two collections the run is clean-clean
// ER; with one it is dirty ER. When a ground-truth CSV (id1, id2) is
// supplied the blocking quality (PC, PQ, F1) is reported on stderr.
//
// Usage:
//
//	blastcli -e1 a.csv -e2 b.csv [-truth t.csv] [-out pairs.csv]
//	blastcli -e1 dirty.csv -induction ac -c 4
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"blast"
	"blast/internal/datasets"
	"blast/internal/metablocking"
	"blast/internal/model"
	"blast/internal/text"
)

func main() {
	e1Path := flag.String("e1", "", "first (or only) collection CSV (required)")
	e2Path := flag.String("e2", "", "second collection CSV (clean-clean ER)")
	truthPath := flag.String("truth", "", "ground truth CSV (optional, enables quality report)")
	outPath := flag.String("out", "", "output CSV of retained pairs (default stdout)")
	induction := flag.String("induction", "lmi", "attribute-match induction: lmi | ac | none")
	alpha := flag.Float64("alpha", 0.9, "LMI candidate factor")
	c := flag.Float64("c", 2, "BLAST local threshold divisor (higher = more recall)")
	d := flag.Float64("d", 2, "BLAST threshold combiner")
	purge := flag.Float64("purge", 0.5, "block purging ratio")
	filter := flag.Float64("filter", 0.8, "block filtering keep ratio")
	lshRows := flag.Int("lsh-rows", 0, "LSH rows per band (0 with -lsh-bands 0 = exhaustive induction)")
	lshBands := flag.Int("lsh-bands", 0, "LSH bands (set with -lsh-rows)")
	pruning := flag.String("pruning", "blast", "pruning: blast | wnp1 | wnp2 | cnp1 | cnp2 | wep | cep")
	transform := flag.String("transform", "token", "value transformation: token | qgram3 | suffix3")
	dumpClusters := flag.Bool("dump-clusters", false, "print the discovered attribute clusters to stderr")
	seed := flag.Uint64("seed", 1, "LSH hash seed (with -lsh-rows/-lsh-bands)")
	flag.Parse()

	if err := run(*e1Path, *e2Path, *truthPath, *outPath, *induction, *pruning, *transform,
		*alpha, *c, *d, *purge, *filter, *lshRows, *lshBands, *seed, *dumpClusters); err != nil {
		fmt.Fprintln(os.Stderr, "blastcli:", err)
		os.Exit(1)
	}
}

func run(e1Path, e2Path, truthPath, outPath, induction, pruning, transform string,
	alpha, c, d, purge, filter float64, lshRows, lshBands int, seed uint64, dumpClusters bool) error {
	if e1Path == "" {
		return fmt.Errorf("-e1 is required")
	}
	if lshRows < 0 || lshBands < 0 || (lshRows == 0) != (lshBands == 0) {
		return fmt.Errorf("-lsh-rows/-lsh-bands = %d/%d: set both >= 1 for LSH, or both 0 for exhaustive induction", lshRows, lshBands)
	}
	e1, err := loadCollection(e1Path, "E1")
	if err != nil {
		return err
	}
	ds := &model.Dataset{Name: "cli", Kind: model.Dirty, E1: e1, Truth: model.NewGroundTruth()}
	if e2Path != "" {
		e2, err := loadCollection(e2Path, "E2")
		if err != nil {
			return err
		}
		ds.Kind = model.CleanClean
		ds.E2 = e2
	}
	if truthPath != "" {
		f, err := os.Open(truthPath)
		if err != nil {
			return err
		}
		truth, err := datasets.ReadTruth(f, ds)
		f.Close() //blast:allow syncerr -- read-only file: a close error cannot lose data already parsed
		if err != nil {
			return err
		}
		ds.Truth = truth
	}

	opt := blast.DefaultOptions()
	opt.Alpha = alpha
	opt.C = c
	opt.D = d
	opt.PurgeRatio = purge
	opt.FilterRatio = filter
	switch transform {
	case "", "token":
		// default tokenizer
	case "qgram3":
		opt.Transform = text.NewQGram(3)
	case "suffix3":
		opt.Transform = text.NewSuffix(3)
	default:
		return fmt.Errorf("unknown transform %q", transform)
	}
	switch induction {
	case "lmi":
		opt.Induction = blast.LMI
	case "ac":
		opt.Induction = blast.AC
	case "none":
		opt.Induction = blast.NoInduction
	default:
		return fmt.Errorf("unknown induction %q", induction)
	}
	switch pruning {
	case "blast":
		opt.Pruning = metablocking.BlastWNP
	case "wnp1":
		opt.Pruning = metablocking.WNP1
	case "wnp2":
		opt.Pruning = metablocking.WNP2
	case "cnp1":
		opt.Pruning = metablocking.CNP1
	case "cnp2":
		opt.Pruning = metablocking.CNP2
	case "wep":
		opt.Pruning = metablocking.WEP
	case "cep":
		opt.Pruning = metablocking.CEP
	default:
		return fmt.Errorf("unknown pruning %q", pruning)
	}
	if lshRows > 0 {
		opt.LSH = &blast.LSHOptions{Rows: lshRows, Bands: lshBands, Seed: seed}
	}

	p, err := blast.NewPipeline(opt)
	if err != nil {
		return err
	}
	res, err := p.Run(context.Background(), ds)
	if err != nil {
		return err
	}
	if dumpClusters {
		fmt.Fprint(os.Stderr, res.LooseSchemaReport())
	}

	writePairs := func(out io.Writer) error {
		w := csv.NewWriter(out)
		if err := w.Write([]string{"id1", "id2"}); err != nil {
			return err
		}
		for _, p := range res.Pairs {
			if err := w.Write([]string{ds.Profile(int(p.U)).ID, ds.Profile(int(p.V)).ID}); err != nil {
				return err
			}
		}
		w.Flush()
		return w.Error()
	}
	if outPath != "" {
		// The output file is the command's deliverable: sync and close
		// errors must fail the run, not vanish behind a deferred Close.
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		werr := writePairs(f)
		if werr == nil {
			werr = f.Sync()
		}
		if err := errors.Join(werr, f.Close()); err != nil {
			return fmt.Errorf("%s: %w", outPath, err)
		}
	} else if err := writePairs(os.Stdout); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "blastcli: %d comparisons retained (%s overhead)\n",
		len(res.Pairs), res.Overhead().Round(1000000))
	if ds.Truth.Size() > 0 {
		fmt.Fprintf(os.Stderr, "blastcli: %v\n", res.Quality)
	}
	return nil
}

func loadCollection(path, name string) (*model.Collection, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //blast:allow syncerr -- read-only file: a close error cannot lose data already parsed
	return datasets.ReadCollection(f, name)
}
