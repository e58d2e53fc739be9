package prune

import (
	"context"

	"blast/internal/graph"
	"blast/internal/model"
)

// The Stream functions run one scheme into a fresh Sink for its pairs
// alone, in canonical order (nil when nothing is retained): the shape
// the tests of this package compare against the edge-list reference.

// WEPStream is Sink.WEP for the retained pairs.
func WEPStream(ctx context.Context, g *graph.CSR, workers int) ([]model.IDPair, error) {
	var s Sink
	return s.pairsAfter(s.WEP(ctx, g, workers))
}

// CEPStream is Sink.CEP for the retained pairs.
func CEPStream(ctx context.Context, g *graph.CSR, k, workers int) ([]model.IDPair, error) {
	var s Sink
	return s.pairsAfter(s.CEP(ctx, g, k, workers))
}

// WNPStream is Sink.WNP for the retained pairs.
func WNPStream(ctx context.Context, g *graph.CSR, mode Mode, workers int) ([]model.IDPair, error) {
	var s Sink
	return s.pairsAfter(s.WNP(ctx, g, mode, workers))
}

// BlastWNPStream is Sink.BlastWNP for the retained pairs.
func BlastWNPStream(ctx context.Context, g *graph.CSR, c, d float64, workers int) ([]model.IDPair, error) {
	var s Sink
	return s.pairsAfter(s.BlastWNP(ctx, g, c, d, workers))
}

// CNPStream is Sink.CNP for the retained pairs.
func CNPStream(ctx context.Context, g *graph.CSR, k int, mode Mode, workers int) ([]model.IDPair, error) {
	var s Sink
	return s.pairsAfter(s.CNP(ctx, g, k, mode, workers))
}

// pairsAfter turns a finished pass into the Stream functions' result.
func (s *Sink) pairsAfter(err error) ([]model.IDPair, error) {
	if err != nil {
		return nil, err
	}
	return s.Pairs(), nil
}
