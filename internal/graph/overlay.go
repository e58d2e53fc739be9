package graph

// Overlay is the mutable form of a CSR blocking graph: a frozen base plus
// copy-on-write row patches. Incremental meta-blocking needs three
// structural operations a flat CSR cannot do in place — append a new
// node's adjacency run, splice a new neighbor into an existing run, and
// replace a run's co-occurrence statistics after a block grows — so the
// overlay materializes only the touched rows, leaves the base arrays
// untouched for everything structural, and writes value changes
// (weights, retention marks) through to wherever a run currently lives.
// Once the materialized rows exceed a caller-chosen fraction of the base
// the overlay is compacted into a fresh flat CSR, restoring pure-array
// locality for the serving path.
//
// The overlay also carries the live collection-level statistics (block
// counts, |B|, ||B||) that weighting schemes consume, so a compacted
// overlay is byte-identical to a cold BuildCSR over the live collection
// — the invariant the incremental differential tests enforce.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Row is the materialized adjacency run of one node: the per-entry
// arrays of the CSR, row-local. Neighbors are sorted ascending, the
// invariant every CSR consumer relies on. Retained carries the caller's
// per-entry retention marks through splices and compaction; the graph
// package never interprets it.
type Row struct {
	Neighbors  []int32
	Common     []int32
	ARCS       []float64
	EntropySum []float64
	Weights    []float64
	Retained   []bool
}

// Len returns the number of entries of the row.
func (r *Row) Len() int { return len(r.Neighbors) }

// validate checks the structural invariants of a row owned by node
// `owner` in a graph of `nodes` profiles: parallel array lengths,
// strictly ascending in-range neighbors, no self loop.
func (r *Row) validate(owner int32, nodes int) error {
	n := len(r.Neighbors)
	if len(r.Common) != n || len(r.ARCS) != n || len(r.EntropySum) != n ||
		len(r.Weights) != n || len(r.Retained) != n {
		return fmt.Errorf("graph: row of node %d has unequal array lengths", owner)
	}
	for i, v := range r.Neighbors {
		if int(v) < 0 || int(v) >= nodes {
			return fmt.Errorf("graph: row of node %d: neighbor %d out of range [0,%d)", owner, v, nodes)
		}
		if v == owner {
			return fmt.Errorf("graph: row of node %d: self loop", owner)
		}
		if i > 0 && v <= r.Neighbors[i-1] {
			return fmt.Errorf("graph: row of node %d: neighbors not strictly ascending at %d", owner, i)
		}
	}
	return nil
}

// RunView is a read-only view of one node's adjacency run, uniform over
// base runs and overlay rows. The slices alias live storage and must not
// be retained across mutations.
type RunView struct {
	Neighbors  []int32
	Common     []int32
	ARCS       []float64
	EntropySum []float64
	Weights    []float64
	Retained   []bool
}

// Overlay wraps a base CSR with copy-on-write row patches and live
// collection-level statistics. It is not safe for concurrent use;
// callers serialize access.
type Overlay struct {
	base     *CSR
	retained []bool // base per-entry retention marks, parallel to base.Neighbors
	rows     map[int32]*Row

	numProfiles    int
	numEntries     int64 // live total entries (2x the edge count)
	overlayEntries int64 // sum of materialized row lengths

	blockCounts      []int32
	totalBlocks      int
	totalComparisons int64
}

// NewOverlay wraps a base CSR. retained is the caller's per-entry
// retention mask, parallel to base.Neighbors; the overlay takes
// ownership of it (write-through mutations target it directly). The
// base's collection-level statistics are copied and evolve with the
// overlay; the base's per-entry arrays are only written through SetWeight
// on unpatched runs.
func NewOverlay(base *CSR, retained []bool) *Overlay {
	if base.Spilled() {
		// The overlay's splice/write-through paths index the resident
		// arrays directly (an index builds its writer's graph resident
		// whatever its storage option says).
		panic("graph: NewOverlay over a spilled CSR")
	}
	return &Overlay{
		base:             base,
		retained:         retained,
		rows:             make(map[int32]*Row),
		numProfiles:      base.NumProfiles,
		numEntries:       int64(len(base.Neighbors)),
		blockCounts:      append([]int32(nil), base.BlockCounts...),
		totalBlocks:      base.TotalBlocks,
		totalComparisons: base.TotalComparisons,
	}
}

// NumProfiles returns the live node count (base plus appended rows).
func (o *Overlay) NumProfiles() int { return o.numProfiles }

// NumEdges returns the live number of distinct comparisons.
func (o *Overlay) NumEdges() int { return int(o.numEntries / 2) }

// TotalBlocks returns the live |B|.
func (o *Overlay) TotalBlocks() int { return o.totalBlocks }

// TotalComparisons returns the live ||B||.
func (o *Overlay) TotalComparisons() int64 { return o.totalComparisons }

// BlockCount returns the live |B_i| of a node.
func (o *Overlay) BlockCount(n int32) int32 { return o.blockCounts[n] }

// AddBlocks records newly created blocks in the live |B|.
func (o *Overlay) AddBlocks(n int) { o.totalBlocks += n }

// AddComparisons records a change of the live aggregate cardinality.
func (o *Overlay) AddComparisons(d int64) { o.totalComparisons += d }

// IncBlockCount records that an existing node joined one more block
// (a pending key materialized around it).
func (o *Overlay) IncBlockCount(n int32) { o.blockCounts[n]++ }

// OverlayEntries returns the number of entries held in materialized rows.
func (o *Overlay) OverlayEntries() int { return int(o.overlayEntries) }

// OverlayLoad returns the materialized-row entry count as a fraction of
// the base entry count (1 when the base is empty but rows exist) — the
// compaction trigger metric.
func (o *Overlay) OverlayLoad() float64 {
	if o.overlayEntries == 0 {
		return 0
	}
	if len(o.base.Neighbors) == 0 {
		return 1
	}
	return float64(o.overlayEntries) / float64(len(o.base.Neighbors))
}

// Degree returns the live |v_n|.
func (o *Overlay) Degree(n int32) int {
	if r, ok := o.rows[n]; ok {
		return r.Len()
	}
	return o.base.Degree(int(n))
}

// Run returns the live adjacency run of a node. Base runs with released
// co-occurrence statistics view nil stat slices.
func (o *Overlay) Run(n int32) RunView {
	if r, ok := o.rows[n]; ok {
		return RunView{
			Neighbors: r.Neighbors, Common: r.Common, ARCS: r.ARCS,
			EntropySum: r.EntropySum, Weights: r.Weights, Retained: r.Retained,
		}
	}
	lo, hi := o.base.Offsets[n], o.base.Offsets[n+1]
	v := RunView{
		Neighbors: o.base.Neighbors[lo:hi],
		Weights:   o.base.Weights[lo:hi],
		Retained:  o.retained[lo:hi],
	}
	if o.base.Common != nil {
		v.Common = o.base.Common[lo:hi]
		v.ARCS = o.base.ARCS[lo:hi]
		v.EntropySum = o.base.EntropySum[lo:hi]
	}
	return v
}

// FindNeighbor locates v in n's live run, returning its run-relative
// position.
func (o *Overlay) FindNeighbor(n, v int32) (int, bool) {
	neigh := o.Run(n).Neighbors
	i := sort.Search(len(neigh), func(i int) bool { return neigh[i] >= v })
	return i, i < len(neigh) && neigh[i] == v
}

// editableRow materializes (copy-on-write) the row of an existing node.
func (o *Overlay) editableRow(n int32) *Row {
	if r, ok := o.rows[n]; ok {
		return r
	}
	lo, hi := o.base.Offsets[n], o.base.Offsets[n+1]
	deg := int(hi - lo)
	r := &Row{
		Neighbors:  append(make([]int32, 0, deg+1), o.base.Neighbors[lo:hi]...),
		Common:     make([]int32, deg, deg+1),
		ARCS:       make([]float64, deg, deg+1),
		EntropySum: make([]float64, deg, deg+1),
		Weights:    append(make([]float64, 0, deg+1), o.base.Weights[lo:hi]...),
		Retained:   append(make([]bool, 0, deg+1), o.retained[lo:hi]...),
	}
	if o.base.Common != nil {
		copy(r.Common, o.base.Common[lo:hi])
		copy(r.ARCS, o.base.ARCS[lo:hi])
		copy(r.EntropySum, o.base.EntropySum[lo:hi])
	}
	o.rows[n] = r
	o.overlayEntries += int64(deg)
	return r
}

// AppendRow adds a new node with the given adjacency run and block
// count, returning the assigned node id (always the current NumProfiles).
// The row must reference only existing nodes; it is validated and the
// overlay takes ownership of it.
func (o *Overlay) AppendRow(r *Row, blockCount int32) (int32, error) {
	id := int32(o.numProfiles)
	if err := r.validate(id, o.numProfiles); err != nil {
		return 0, err
	}
	o.rows[id] = r
	o.numProfiles++
	o.numEntries += int64(r.Len())
	o.overlayEntries += int64(r.Len())
	o.blockCounts = append(o.blockCounts, blockCount)
	return id, nil
}

// Splice inserts neighbor v into u's run with the given co-occurrence
// statistics, preserving ascending neighbor order; the new entry starts
// with zero weight and a false retention mark. If v is already present
// its statistics are replaced and its weight and mark are preserved.
// Returns the run-relative position and whether a new entry was created.
func (o *Overlay) Splice(u, v int32, common int32, arcs, entropySum float64) (int, bool, error) {
	if int(u) < 0 || int(u) >= o.numProfiles {
		return 0, false, fmt.Errorf("graph: splice into out-of-range node %d", u)
	}
	if int(v) < 0 || int(v) >= o.numProfiles {
		return 0, false, fmt.Errorf("graph: splice of out-of-range neighbor %d", v)
	}
	if u == v {
		return 0, false, fmt.Errorf("graph: splice of self loop on node %d", u)
	}
	r := o.editableRow(u)
	i := sort.Search(len(r.Neighbors), func(i int) bool { return r.Neighbors[i] >= v })
	if i < len(r.Neighbors) && r.Neighbors[i] == v {
		r.Common[i], r.ARCS[i], r.EntropySum[i] = common, arcs, entropySum
		return i, false, nil
	}
	r.Neighbors = slices.Insert(r.Neighbors, i, v)
	r.Common = slices.Insert(r.Common, i, common)
	r.ARCS = slices.Insert(r.ARCS, i, arcs)
	r.EntropySum = slices.Insert(r.EntropySum, i, entropySum)
	r.Weights = slices.Insert(r.Weights, i, 0)
	r.Retained = slices.Insert(r.Retained, i, false)
	o.numEntries++
	o.overlayEntries++
	return i, true, nil
}

// ReplaceStats overwrites the co-occurrence statistics of a node's run
// (after blocks it belongs to grew), keeping weights and retention marks.
// The replacement arrays must cover exactly the run's current entries.
func (o *Overlay) ReplaceStats(n int32, common []int32, arcs, entropySum []float64) error {
	deg := o.Degree(n)
	if len(common) != deg || len(arcs) != deg || len(entropySum) != deg {
		return fmt.Errorf("graph: ReplaceStats(%d): %d stats for a run of %d entries", n, len(common), deg)
	}
	r := o.editableRow(n)
	copy(r.Common, common)
	copy(r.ARCS, arcs)
	copy(r.EntropySum, entropySum)
	return nil
}

// WeightAt returns the live weight of entry pos of node n's run.
func (o *Overlay) WeightAt(n int32, pos int) float64 { return o.Run(n).Weights[pos] }

// SetWeight writes a weight, through to the base arrays when the run is
// not materialized.
func (o *Overlay) SetWeight(n int32, pos int, w float64) {
	if r, ok := o.rows[n]; ok {
		r.Weights[pos] = w
		return
	}
	o.base.Weights[o.base.Offsets[n]+int64(pos)] = w
}

// RetainedAt returns the live retention mark of entry pos of node n.
func (o *Overlay) RetainedAt(n int32, pos int) bool { return o.Run(n).Retained[pos] }

// SetRetained writes a retention mark (write-through like SetWeight) and
// returns the previous value.
func (o *Overlay) SetRetained(n int32, pos int, v bool) bool {
	if r, ok := o.rows[n]; ok {
		old := r.Retained[pos]
		r.Retained[pos] = v
		return old
	}
	p := o.base.Offsets[n] + int64(pos)
	old := o.retained[p]
	o.retained[p] = v
	return old
}

// ForEachCanonical invokes fn for every canonical (u < v) live entry in
// ascending (u, v) order with its weight and retention mark — the order
// Pairs materialization and the streaming pruners use. Polls ctx at
// node-chunk granularity and at edge-segment granularity inside each
// run, so a hub row cannot delay cancellation arbitrarily.
func (o *Overlay) ForEachCanonical(ctx context.Context, fn func(u, v int32, w float64, retained bool)) error {
	budget := csrCancelCheckEvery
	for n := 0; n < o.numProfiles; n++ {
		if n%csrCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		run := o.Run(int32(n))
		for i := 0; i < len(run.Neighbors); {
			seg := len(run.Neighbors) - i
			if seg > budget {
				seg = budget
			}
			for stop := i + seg; i < stop; i++ {
				if v := run.Neighbors[i]; int(v) > n {
					fn(int32(n), v, run.Weights[i], run.Retained[i])
				}
			}
			if budget -= seg; budget == 0 {
				budget = csrCancelCheckEvery
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// errNoStats reports a base whose co-occurrence statistics were released:
// a mutable overlay cannot reweigh without them.
var errNoStats = errors.New("graph: overlay base has released co-occurrence statistics")

// Compact folds the base and the materialized rows into a fresh flat CSR
// (with live collection-level statistics) plus the flat retention mask
// parallel to its entries. The overlay is left unchanged; callers
// typically rewrap the result in a new overlay. The base must still
// carry its co-occurrence statistics.
func (o *Overlay) Compact(ctx context.Context) (*CSR, []bool, error) {
	if o.base.Common == nil && len(o.base.Neighbors) > 0 {
		return nil, nil, errNoStats
	}
	np := o.numProfiles
	g := &CSR{
		NumProfiles:      np,
		Offsets:          make([]int64, np+1),
		Neighbors:        make([]int32, 0, o.numEntries),
		Common:           make([]int32, 0, o.numEntries),
		ARCS:             make([]float64, 0, o.numEntries),
		EntropySum:       make([]float64, 0, o.numEntries),
		Weights:          make([]float64, 0, o.numEntries),
		BlockCounts:      append([]int32(nil), o.blockCounts...),
		TotalBlocks:      o.totalBlocks,
		TotalComparisons: o.totalComparisons,
	}
	retained := make([]bool, 0, o.numEntries)
	for n := 0; n < np; n++ {
		if n%csrCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		run := o.Run(int32(n))
		g.Neighbors = append(g.Neighbors, run.Neighbors...)
		if run.Common != nil {
			g.Common = append(g.Common, run.Common...)
			g.ARCS = append(g.ARCS, run.ARCS...)
			g.EntropySum = append(g.EntropySum, run.EntropySum...)
		} else {
			// Empty base run with released stats: nothing to copy.
			//blast:allow ctxpoll -- zero-fill over one already-materialized run; the node-granularity poll above bounds the delay and this is memory-bandwidth work, not comparison work
			for range run.Neighbors {
				g.Common = append(g.Common, 0)
				g.ARCS = append(g.ARCS, 0)
				g.EntropySum = append(g.EntropySum, 0)
			}
		}
		g.Weights = append(g.Weights, run.Weights...)
		retained = append(retained, run.Retained...)
		g.Offsets[n+1] = int64(len(g.Neighbors))
	}
	return g, retained, nil
}
