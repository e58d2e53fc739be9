package blast

// Tests of the Index invariant machinery: the validate-then-apply
// InsertAll contract — a mid-batch internal failure finalizes and
// reports the admitted prefix via ErrPartialInsert, never a
// half-finalized state.

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"blast/internal/model"
	"blast/internal/stats"
)

// TestInsertAllFailpointPartialAdmission drives InsertAll into a
// mid-batch internal failure via the test failpoint and pins the
// contract: the error wraps ErrPartialInsert, exactly the admitted
// prefix ids are returned, and the index is finalized — equivalent to a
// cold rebuild over what landed, and still writable.
func TestInsertAllFailpointPartialAdmission(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(0xFA11)
	ds := synthDirty(rng, 30)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.IndexBlocks(ctx, blocks)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("invariant blown")
	ix.insertFail = func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	}
	batch := make([]model.Profile, 5)
	for i := range batch {
		batch[i] = synthProfile(rng, fmt.Sprintf("f%d", i))
	}
	ids, err := ix.InsertAll(ctx, batch)
	if !errors.Is(err, ErrPartialInsert) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrPartialInsert wrapping the cause", err)
	}
	if len(ids) != 3 || ids[0] != 30 || ids[2] != 32 {
		t.Fatalf("admitted prefix ids = %v, want [30 31 32]", ids)
	}
	ix.insertFail = nil
	// The partial admission is finalized: equivalent to a cold rebuild
	// over seed + the 3-profile prefix, and the index stays usable.
	checkIndexEquivalence(t, "after partial admission", p, ix)
	if ids, err := ix.InsertAll(ctx, batch[3:]); err != nil || len(ids) != 2 {
		t.Fatalf("insert after partial admission = %v, %v", ids, err)
	}
	checkIndexEquivalence(t, "after resumed insert", p, ix)
}

// TestInsertAllFailpointFirstProfile: a failure before anything is
// admitted is a plain rejection — no ErrPartialInsert, no ids, and the
// index is untouched.
func TestInsertAllFailpointFirstProfile(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(0xFA12)
	ds := synthDirty(rng, 25)
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sch, err := p.InduceSchema(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := p.Block(ctx, ds, sch)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := p.IndexBlocks(ctx, blocks)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("no admission")
	ix.insertFail = func(int) error { return boom }
	ids, err := ix.InsertAll(ctx, []model.Profile{synthProfile(rng, "x")})
	if errors.Is(err, ErrPartialInsert) {
		t.Fatalf("zero-admission failure wrongly reports a partial insert: %v", err)
	}
	if !errors.Is(err, boom) || len(ids) != 0 {
		t.Fatalf("err = %v, ids = %v; want the cause with no ids", err, ids)
	}
	if ix.NumProfiles() != 25 {
		t.Fatalf("rejected batch grew the index to %d profiles", ix.NumProfiles())
	}
	ix.insertFail = nil
	checkIndexEquivalence(t, "after rejection", p, ix)
}
