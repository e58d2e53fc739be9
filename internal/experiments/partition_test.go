package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestPartitionShapesAndRender(t *testing.T) {
	rows, err := Partition(tiny(), "ar1", []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	// One row per shard count.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	for _, r := range rows {
		if !r.PairsMatch {
			t.Errorf("shards=%d diverged", r.Shards)
		}
		if r.InsertThroughput <= 0 || r.MaxOwnedRows <= 0 || r.MaxResidentBytes <= 0 {
			t.Errorf("row shape: %+v", r)
		}
		if r.GOMAXPROCS < 1 || r.Streamed == 0 || r.BaseProfiles == 0 {
			t.Errorf("row shape: %+v", r)
		}
	}
	// One shard holds every row; two split them, so the 2-shard
	// per-shard residency must come in under the 1-shard row's.
	par1, par2 := rows[0], rows[1]
	total := par1.BaseProfiles + par1.Streamed
	if par1.MaxOwnedRows != total {
		t.Errorf("1 shard owns %d rows, want %d", par1.MaxOwnedRows, total)
	}
	if par2.MaxOwnedRows >= total {
		t.Errorf("2 shards: the largest owns %d rows, want < %d", par2.MaxOwnedRows, total)
	}
	if par2.MaxResidentBytes >= par1.MaxResidentBytes {
		t.Errorf("per-shard memory did not shrink: 1 shard %d, 2 shards %d",
			par1.MaxResidentBytes, par2.MaxResidentBytes)
	}
	if par1.MemVs1 != 1 || par2.MemVs1 <= 0 || par2.MemVs1 >= 1 {
		t.Errorf("memory scaling series: 1-shard %v, 2-shard %v", par1.MemVs1, par2.MemVs1)
	}
	out := RenderPartition(rows)
	for _, want := range []string{"ar1", "shards", "mem/1shd"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	js, err := PartitionJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	var back []PartitionRow
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if len(back) != len(rows) || back[1].InsertThroughput != rows[1].InsertThroughput {
		t.Error("artifact round-trip mismatch")
	}
}

func TestPartitionUnknownDataset(t *testing.T) {
	if _, err := Partition(tiny(), "nope", []int{1}); err == nil {
		t.Error("unknown dataset should error")
	}
}
