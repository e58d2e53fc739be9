package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"blast"
	"blast/internal/datasets"
)

func TestServeShapesAndRender(t *testing.T) {
	rows, err := Serve(tiny(), "ar1", []int{1, 2}, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// One baseline row plus one per shard count.
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[0].Mode != "index" || rows[0].Readers != 2 {
		t.Errorf("baseline row = %+v", rows[0])
	}
	var sawOne, sawTwo bool
	for _, r := range rows[1:] {
		if r.Mode != "server" {
			t.Errorf("server row mode = %q", r.Mode)
		}
		if !r.PairsMatch {
			t.Errorf("shards=%d diverged", r.Shards)
		}
		if r.ReadThroughput <= 0 {
			t.Errorf("shards=%d read throughput %v", r.Shards, r.ReadThroughput)
		}
		if r.GOMAXPROCS < 1 || r.Streamed == 0 || r.BaseProfiles == 0 {
			t.Errorf("row shape: %+v", r)
		}
		switch r.Shards {
		case 1:
			sawOne = true
			if r.ScalingVs1 != 1 {
				t.Errorf("1-shard scaling = %v", r.ScalingVs1)
			}
		case 2:
			sawTwo = true
			if r.ScalingVs1 <= 0 {
				t.Errorf("2-shard scaling = %v", r.ScalingVs1)
			}
		}
	}
	if !sawOne || !sawTwo {
		t.Error("missing shard-count rows")
	}
	out := RenderServe(rows)
	for _, want := range []string{"ar1", "server", "index", "reads/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	js, err := ServeJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []ServeRow
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if len(back) != len(rows) || back[1].ReadThroughput != rows[1].ReadThroughput {
		t.Error("artifact round-trip mismatch")
	}
}

func TestServeUnknownDataset(t *testing.T) {
	if _, err := Serve(tiny(), "nope", []int{1}, time.Millisecond); err == nil {
		t.Error("unknown dataset should error")
	}
}

// TestStreamedInsertsMatchColdRebuild streams every registry dataset's
// held-out tail (splitStream, the cut serve, partition and recover
// stream) into an Index through InsertAll, one profile at a time and in
// batches of 16, and holds Pairs, Candidates and Threshold to a cold
// IndexBlocks over the grown collection.
func TestStreamedInsertsMatchColdRebuild(t *testing.T) {
	ctx := context.Background()
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range datasets.AllNames() {
		full, err := tiny().load(name)
		if err != nil {
			t.Fatal(err)
		}
		base, stream := splitStream(full)
		for _, batch := range []int{1, 16} {
			label := fmt.Sprintf("%s/batch=%d", name, batch)
			ix, err := p.BuildIndex(ctx, base)
			if err != nil {
				t.Fatalf("%s: BuildIndex: %v", label, err)
			}
			for off := 0; off < len(stream); off += batch {
				if _, err := ix.InsertAll(ctx, stream[off:min(off+batch, len(stream))]); err != nil {
					t.Fatalf("%s: InsertAll at %d: %v", label, off, err)
				}
			}
			cold, err := p.IndexBlocks(ctx, &blast.Blocks{Collection: ix.Blocks().Clone(), Schema: ix.Schema()})
			if err != nil {
				t.Fatalf("%s: cold IndexBlocks: %v", label, err)
			}
			if got, want := ix.Pairs(), cold.Pairs(); !slices.Equal(got, want) {
				t.Fatalf("%s: %d pairs after inserts, cold rebuild %d", label, len(got), len(want))
			}
			var got, want []blast.Candidate
			for i := 0; i < cold.NumProfiles(); i++ {
				if g, w := ix.Threshold(i), cold.Threshold(i); g != w {
					t.Fatalf("%s: Threshold(%d) = %v, cold rebuild %v", label, i, g, w)
				}
				got, want = ix.AppendCandidates(got[:0], i), cold.AppendCandidates(want[:0], i)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: Candidates(%d) = %v, cold rebuild %v", label, i, got, want)
				}
			}
		}
	}
}
