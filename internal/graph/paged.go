package graph

// Beyond-RAM CSR: the spilled form of the blocking graph. The per-entry
// arrays (Neighbors, the co-occurrence stats, Weights) are cut into
// node-aligned pages and written as CRC-framed segments (internal/
// store); Offsets, BlockCounts and all node-level state stay resident.
// Pages load back through a bounded LRU cache, so the resident footprint
// of a spilled graph is O(nodes) + the cache capacity instead of
// O(entries).
//
// Pages are cut only at node boundaries, so one adjacency run never
// straddles two pages and Run(u) is always a sub-slice of a single
// decoded page — which is exactly the access shape of the streaming
// pruning passes (ascending node sweeps) and of the chunked parallel
// pruner (contiguous node ranges). A hub node whose run exceeds the
// page target simply gets a larger page of its own.
//
// Read failures are sticky: a page that fails validation (a named
// internal/store error — corruption fails closed, never yields
// plausible bytes) records itself on the CSR, the failing access
// observes zeroed entries, and every build/prune entry point checks
// Err() before trusting its output. That keeps the hot accessors free
// of error returns without ever letting a corrupt build complete
// silently.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"

	"blast/internal/blocking"
	"blast/internal/store"
)

// SpillOptions configures BuildCSRSpillCtx.
type SpillOptions struct {
	// Dir is the directory that hosts the spill segment files; each
	// build creates a unique subdirectory inside it, removed by Close.
	// Empty uses the operating system's temp directory.
	Dir string
	// MemoryBudget bounds the resident per-entry adjacency bytes of the
	// build: the builder accumulates in memory exactly like BuildCSR
	// until the adjacency would exceed the budget, then flushes every
	// page to disk and streams the rest. <= 0 spills from the first
	// page. A build that never exceeds the budget returns a plain
	// resident CSR.
	MemoryBudget int64
	// PageEntries is the target adjacency entries per page (pages are
	// cut at the first node boundary at or past it); 0 uses 64Ki.
	PageEntries int
	// CacheBytes bounds the decoded-page LRU cache; 0 derives a default
	// from MemoryBudget (a quarter of it, clamped to [1MiB, 256MiB]).
	CacheBytes int64
}

const defaultPageEntries = 1 << 16

func (o SpillOptions) pageEntries() int {
	if o.PageEntries > 0 {
		return o.PageEntries
	}
	return defaultPageEntries
}

func (o SpillOptions) cacheBytes() int64 {
	if o.CacheBytes > 0 {
		return o.CacheBytes
	}
	const mib = 1 << 20
	c := o.MemoryBudget / 4
	if c < mib {
		c = mib
	}
	if c > 256*mib {
		c = 256 * mib
	}
	return c
}

// spillEntryBytes is the resident per-entry cost the memory budget is
// compared against during a build: neighbor id + common count + ARCS +
// entropy sum (weights do not exist yet at build time).
const spillEntryBytes = 4 + 4 + 8 + 8

// Streams of a spilled CSR; each is one segment file, page i of the
// graph = frame i of every stream.
const (
	streamNbr = iota
	streamCommon
	streamARCS
	streamEnt
	streamWts
	numStreams
)

var streamNames = [numStreams]string{"neighbors", "common", "arcs", "entropy", "weights"}

// pagedEntries is the spilled backing of a CSR's per-entry arrays.
type pagedEntries struct {
	dir     string
	ownsDir bool
	arenas  [numStreams]*store.FileArena
	cache   *store.Cache
	// Page p covers nodes [startNode[p], startNode[p+1]) and entries
	// [startEntry[p], startEntry[p+1]); nodePage maps node -> page.
	startNode  []int32
	startEntry []int64
	nodePage   []int32

	mu  sync.Mutex
	err error
}

func (pg *pagedEntries) pages() int { return len(pg.startEntry) - 1 }

func (pg *pagedEntries) noteErr(err error) {
	pg.mu.Lock()
	if pg.err == nil {
		pg.err = err
	}
	pg.mu.Unlock()
}

func (pg *pagedEntries) readErr() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.err
}

func cacheKey(stream, page int) uint64 {
	return uint64(stream)<<48 | uint64(uint32(page))
}

// keyStream recovers the stream of a cacheKey.
func keyStream(key uint64) int { return int(key >> 48) }

func (pg *pagedEntries) pageLen(page int) int {
	return int(pg.startEntry[page+1] - pg.startEntry[page])
}

// loadInt32s loads and decodes one page of an int32 stream, bypassing
// the cache (used by the streaming weigh pass).
func (pg *pagedEntries) loadInt32s(stream, page int, scratch []byte) ([]int32, []byte, error) {
	buf, err := pg.arenas[stream].Load(page, scratch)
	if err != nil {
		return nil, scratch, err
	}
	n := pg.pageLen(page)
	s, err := decodeInt32s(buf, n)
	if err != nil {
		return nil, buf, fmt.Errorf("%s page %d: %w", streamNames[stream], page, err)
	}
	return s, buf, nil
}

func (pg *pagedEntries) loadFloat64s(stream, page int, scratch []byte) ([]float64, []byte, error) {
	buf, err := pg.arenas[stream].Load(page, scratch)
	if err != nil {
		return nil, scratch, err
	}
	n := pg.pageLen(page)
	s, err := decodeFloat64s(buf, n)
	if err != nil {
		return nil, buf, fmt.Errorf("%s page %d: %w", streamNames[stream], page, err)
	}
	return s, buf, nil
}

// pageInt32s returns one decoded page of an int32 stream through the
// shared cache. On a read failure it records the sticky error and
// returns a zeroed page so callers keep their shape.
func (pg *pagedEntries) pageInt32s(stream, page int) []int32 {
	v, err := pg.cache.Get(cacheKey(stream, page), func() (any, int64, error) {
		s, _, err := pg.loadInt32s(stream, page, nil)
		if err != nil {
			return nil, 0, err
		}
		return s, int64(len(s)) * 4, nil
	})
	if err != nil {
		pg.noteErr(err)
		return make([]int32, pg.pageLen(page))
	}
	return v.([]int32)
}

func (pg *pagedEntries) pageFloat64s(stream, page int) []float64 {
	v, err := pg.cache.Get(cacheKey(stream, page), func() (any, int64, error) {
		s, _, err := pg.loadFloat64s(stream, page, nil)
		if err != nil {
			return nil, 0, err
		}
		return s, int64(len(s)) * 8, nil
	})
	if err != nil {
		pg.noteErr(err)
		return make([]float64, pg.pageLen(page))
	}
	return v.([]float64)
}

// run returns node u's adjacency slices out of its page. wts is nil
// until the graph has been weighted.
func (pg *pagedEntries) run(u int, lo, hi int64) (nbr []int32, wts []float64) {
	if lo == hi {
		return nil, nil
	}
	p := int(pg.nodePage[u])
	base := pg.startEntry[p]
	nbr = pg.pageInt32s(streamNbr, p)[lo-base : hi-base]
	if pg.arenas[streamWts] != nil {
		wts = pg.pageFloat64s(streamWts, p)[lo-base : hi-base]
	}
	return nbr, wts
}

func (pg *pagedEntries) close() error {
	var errs []error
	for i, a := range pg.arenas {
		if a == nil {
			continue
		}
		pg.arenas[i] = nil
		if err := a.CloseAndRemove(); err != nil {
			errs = append(errs, err)
		}
	}
	if pg.ownsDir && pg.dir != "" {
		if err := os.Remove(pg.dir); err != nil && !os.IsNotExist(err) {
			errs = append(errs, err)
		}
		pg.dir = ""
	}
	return errors.Join(errs...)
}

// releaseStats closes and deletes the co-occurrence stat streams; the
// adjacency and weights streams stay.
func (pg *pagedEntries) releaseStats() {
	for _, s := range []int{streamCommon, streamARCS, streamEnt} {
		if a := pg.arenas[s]; a != nil {
			pg.arenas[s] = nil
			if err := a.CloseAndRemove(); err != nil {
				pg.noteErr(err)
			}
		}
	}
}

// ---- typed payload codec ------------------------------------------------

func appendInt32s(dst []byte, s []int32) []byte {
	for _, v := range s {
		u := uint32(v)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return dst
}

func appendFloat64s(dst []byte, s []float64) []byte {
	for _, v := range s {
		u := math.Float64bits(v)
		dst = append(dst, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return dst
}

func decodeInt32s(b []byte, n int) ([]int32, error) {
	if len(b) != n*4 {
		return nil, fmt.Errorf("%w: %d payload bytes for %d int32 entries", store.ErrCorruptSegment, len(b), n)
	}
	s := make([]int32, n)
	for i := range s {
		o := i * 4
		s[i] = int32(uint32(b[o]) | uint32(b[o+1])<<8 | uint32(b[o+2])<<16 | uint32(b[o+3])<<24)
	}
	return s, nil
}

func decodeFloat64s(b []byte, n int) ([]float64, error) {
	if len(b) != n*8 {
		return nil, fmt.Errorf("%w: %d payload bytes for %d float64 entries", store.ErrCorruptSegment, len(b), n)
	}
	s := make([]float64, n)
	for i := range s {
		o := i * 8
		s[i] = math.Float64frombits(uint64(b[o]) | uint64(b[o+1])<<8 | uint64(b[o+2])<<16 |
			uint64(b[o+3])<<24 | uint64(b[o+4])<<32 | uint64(b[o+5])<<40 |
			uint64(b[o+6])<<48 | uint64(b[o+7])<<56)
	}
	return s, nil
}

// ---- spilled accessors on CSR -------------------------------------------

// Spilled reports whether the per-entry arrays are file-backed. The
// node-level arrays (Offsets, BlockCounts) are always resident.
func (g *CSR) Spilled() bool { return g.pages != nil }

// Err returns the first page read/decode failure observed on a spilled
// graph (nil for resident graphs and healthy spilled ones). Reads from
// a failing page observe zeroed entries so hot accessors stay free of
// error returns; every pass that consumes a spilled graph must check
// Err before trusting its output — the build and prune entry points do.
func (g *CSR) Err() error {
	if g.pages == nil {
		return nil
	}
	return g.pages.readErr()
}

// Close releases the spill segment files of a file-backed graph (no-op
// for resident graphs). The graph must not be accessed afterwards.
func (g *CSR) Close() error {
	if g.pages == nil {
		return nil
	}
	pg := g.pages
	g.pages = nil
	return pg.close()
}

// CacheStats returns the page-cache counters of a spilled graph (zero
// for resident graphs, which have no cache).
func (g *CSR) CacheStats() store.CacheStats {
	if g.pages == nil {
		return store.CacheStats{}
	}
	return g.pages.cache.Stats()
}

// SpillBytes returns the on-disk footprint of a spilled graph's open
// segment files (0 for resident graphs).
func (g *CSR) SpillBytes() int64 {
	if g.pages == nil {
		return 0
	}
	var total int64
	for _, a := range g.pages.arenas {
		if a == nil {
			continue
		}
		if fi, err := os.Stat(a.Path()); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// MaterializeWeights returns the full per-entry weight array, reading
// every weights page of a spilled graph (for resident graphs it is
// simply Weights). It is the bridge back to residency: the first
// mutation of a spilled index rebuilds a resident CSR and carries the
// weights over through this call.
func (g *CSR) MaterializeWeights() ([]float64, error) {
	if g.pages == nil {
		return g.Weights, nil
	}
	if g.pages.arenas[streamWts] == nil {
		return nil, errors.New("graph: spilled CSR has no weights stream")
	}
	out := make([]float64, g.NumEntries())
	var scratch []byte
	for p := 0; p < g.pages.pages(); p++ {
		s, sc, err := g.pages.loadFloat64s(streamWts, p, scratch)
		if err != nil {
			return nil, err
		}
		scratch = sc
		copy(out[g.pages.startEntry[p]:], s)
	}
	return out, nil
}

// WeighSpilled streams every adjacency entry of a spilled graph through
// fn — in storage order, with the entry's co-occurrence statistics —
// and persists the returned weights page by page. It is the spilled
// counterpart of a weighting scheme's in-place resident pass
// (weights.Scheme.ApplyCSR): fn must compute the weight with its
// arguments in canonical (u < v) orientation so both entries of an edge
// carry bit-identical values, exactly as ApplyOwnedCSR already does for
// owned-rows graphs.
func (g *CSR) WeighSpilled(fn func(u, v int32, common int32, arcs, entropySum float64) float64) error {
	pg := g.pages
	if pg == nil {
		return errors.New("graph: WeighSpilled on a resident CSR")
	}
	// Failures are sticky (Err) in addition to being returned: weighting
	// runs inside passes whose callers consult Err once at the end.
	err := g.weighSpilled(pg, fn)
	if err != nil {
		pg.noteErr(err)
	}
	return err
}

func (g *CSR) weighSpilled(pg *pagedEntries, fn func(u, v int32, common int32, arcs, entropySum float64) float64) error {
	// Re-weighting replaces the weights stream: release the previous
	// scheme's segment and evict its cached pages first, or every later
	// pass would keep pruning on the first scheme's weights.
	if old := pg.arenas[streamWts]; old != nil {
		pg.arenas[streamWts] = nil
		pg.cache.Drop(func(key uint64) bool { return keyStream(key) == streamWts })
		if err := old.CloseAndRemove(); err != nil {
			return err
		}
	}
	wts, err := store.CreateFile(pg.arenas[streamNbr].Path() + ".wts")
	if err != nil {
		return err
	}
	var nbrScratch, comScratch, arcsScratch, entScratch, encBuf []byte
	wbuf := make([]float64, 0, defaultPageEntries)
	for p := 0; p < pg.pages(); p++ {
		nbr, sc1, err := pg.loadInt32s(streamNbr, p, nbrScratch)
		if err != nil {
			return errors.Join(err, wts.CloseAndRemove())
		}
		nbrScratch = sc1
		com, sc2, err := pg.loadInt32s(streamCommon, p, comScratch)
		if err != nil {
			return errors.Join(err, wts.CloseAndRemove())
		}
		comScratch = sc2
		arcs, sc3, err := pg.loadFloat64s(streamARCS, p, arcsScratch)
		if err != nil {
			return errors.Join(err, wts.CloseAndRemove())
		}
		arcsScratch = sc3
		ent, sc4, err := pg.loadFloat64s(streamEnt, p, entScratch)
		if err != nil {
			return errors.Join(err, wts.CloseAndRemove())
		}
		entScratch = sc4

		wbuf = wbuf[:0]
		base := pg.startEntry[p]
		for u := int(pg.startNode[p]); u < int(pg.startNode[p+1]); u++ {
			for e := g.Offsets[u]; e < g.Offsets[u+1]; e++ {
				i := e - base
				wbuf = append(wbuf, fn(int32(u), nbr[i], com[i], arcs[i], ent[i]))
			}
		}
		encBuf = appendFloat64s(encBuf[:0], wbuf)
		if _, err := wts.Append(encBuf); err != nil {
			return errors.Join(err, wts.CloseAndRemove())
		}
	}
	pg.arenas[streamWts] = wts
	return nil
}

// ---- spill builder -------------------------------------------------------

// spillBuilder accumulates node-aligned pages during a build: resident
// page buffers until the memory budget is exceeded, segment files from
// then on.
type spillBuilder struct {
	opt     SpillOptions
	target  int
	pg      *pagedEntries
	spilled bool

	// Completed pages still resident (pre-spill), in page order.
	done []pageBuf
	// The open page.
	cur pageBuf
	// Total entries appended (across done, flushed and cur).
	entries int64
	encBuf  []byte
}

type pageBuf struct {
	nbr    []int32
	common []int32
	arcs   []float64
	ent    []float64
}

func (b *pageBuf) len() int { return len(b.nbr) }

// resize sets the length of every column to n, keeping their contents.
func (b *pageBuf) resize(n int) {
	b.nbr = slices.Grow(b.nbr[:0], n)[:n]
	b.common = slices.Grow(b.common[:0], n)[:n]
	b.arcs = slices.Grow(b.arcs[:0], n)[:n]
	b.ent = slices.Grow(b.ent[:0], n)[:n]
}

// appendRun emits the accumulator's run onto the open page; atMost
// bounds its length (the comparisons the node's walk visited).
func (sb *spillBuilder) appendRun(acc *rowAcc, atMost int) {
	at := sb.cur.len()
	sb.cur.resize(at + atMost)
	n := acc.emit(sb.cur.nbr[at:], sb.cur.common[at:], sb.cur.arcs[at:], sb.cur.ent[at:])
	sb.cur.resize(at + n)
	sb.entries += int64(n)
}

// closeNode seals the node boundary after node u's run was appended:
// the open page is cut if it reached the target, and the build switches
// to spilling if the resident adjacency exceeded the budget.
func (sb *spillBuilder) closeNode(u int) error {
	cut := sb.cur.len() >= sb.target
	if cut {
		if err := sb.sealPage(u + 1); err != nil {
			return err
		}
	}
	if !sb.spilled && sb.entries*spillEntryBytes > sb.opt.MemoryBudget {
		if err := sb.beginSpill(); err != nil {
			return err
		}
	}
	return nil
}

// sealPage closes the open page at node boundary nextNode.
func (sb *spillBuilder) sealPage(nextNode int) error {
	sb.pg.startNode = append(sb.pg.startNode, int32(nextNode))
	sb.pg.startEntry = append(sb.pg.startEntry, sb.pg.startEntry[len(sb.pg.startEntry)-1]+int64(sb.cur.len()))
	if sb.spilled {
		if err := sb.flushPage(&sb.cur); err != nil {
			return err
		}
		sb.cur.resize(0)
	} else {
		sb.done = append(sb.done, sb.cur)
		sb.cur = pageBuf{}
	}
	return nil
}

func (sb *spillBuilder) flushPage(p *pageBuf) error {
	sb.encBuf = appendInt32s(sb.encBuf[:0], p.nbr)
	if _, err := sb.pg.arenas[streamNbr].Append(sb.encBuf); err != nil {
		return err
	}
	sb.encBuf = appendInt32s(sb.encBuf[:0], p.common)
	if _, err := sb.pg.arenas[streamCommon].Append(sb.encBuf); err != nil {
		return err
	}
	sb.encBuf = appendFloat64s(sb.encBuf[:0], p.arcs)
	if _, err := sb.pg.arenas[streamARCS].Append(sb.encBuf); err != nil {
		return err
	}
	sb.encBuf = appendFloat64s(sb.encBuf[:0], p.ent)
	if _, err := sb.pg.arenas[streamEnt].Append(sb.encBuf); err != nil {
		return err
	}
	return nil
}

// beginSpill creates the segment files and flushes every page built so
// far, releasing their resident buffers.
func (sb *spillBuilder) beginSpill() error {
	dir, err := os.MkdirTemp(sb.opt.Dir, "blast-spill-*")
	if err != nil {
		return err
	}
	sb.pg.dir, sb.pg.ownsDir = dir, true
	for _, s := range []int{streamNbr, streamCommon, streamARCS, streamEnt} {
		a, err := store.CreateFile(dir + "/" + streamNames[s] + ".seg")
		if err != nil {
			return err
		}
		sb.pg.arenas[s] = a
	}
	sb.spilled = true
	for i := range sb.done {
		if err := sb.flushPage(&sb.done[i]); err != nil {
			return err
		}
		sb.done[i] = pageBuf{}
	}
	sb.done = nil
	return nil
}

// abort releases everything a failed build accumulated.
func (sb *spillBuilder) abort() {
	if sb.pg != nil {
		_ = sb.pg.close()
	}
}

// BuildCSRSpill is BuildCSRSpillCtx with a background context.
func BuildCSRSpill(c *blocking.Collection, opt SpillOptions) (*CSR, error) {
	return BuildCSRSpillCtx(context.Background(), c, opt)
}

// BuildCSRSpillCtx constructs the same graph as BuildCSR — per-entry
// values bit-identical, since the per-node accumulation loop is shared
// — under a resident-memory budget: the adjacency accumulates in
// node-aligned pages that spill to CRC-framed segment files once the
// budget is exceeded. A build that stays under the budget returns a
// plain resident CSR; one that exceeds it returns a spilled CSR whose
// per-entry arrays page in through a bounded cache (see SpillOptions).
// Spilled graphs must be Closed to release their segment files.
func BuildCSRSpillCtx(ctx context.Context, c *blocking.Collection, opt SpillOptions) (*CSR, error) {
	g := newCSRHeader(c)
	ix := buildBlockIndex(c, g.BlockCounts)
	inv := blockInverses(c)
	acc := newRowAcc(c.NumProfiles)
	sb := &spillBuilder{
		opt:    opt,
		target: opt.pageEntries(),
		pg:     &pagedEntries{startNode: []int32{0}, startEntry: []int64{0}},
	}
	if opt.MemoryBudget <= 0 {
		// Spill from the start: create the arenas before the first page.
		if err := sb.beginSpill(); err != nil {
			sb.abort()
			return nil, err
		}
	}
	budget := 0
	for n := 0; n < c.NumProfiles; n++ {
		if budget <= 0 {
			if err := ctx.Err(); err != nil {
				sb.abort()
				return nil, err
			}
			budget = buildPollBudget
		}
		visited := acc.walk(c, inv, &ix, int32(n), true)
		budget -= buildPollBudget/csrCancelCheckEvery + visited
		sb.appendRun(acc, visited)
		g.Offsets[n+1] = sb.entries
		if err := sb.closeNode(n); err != nil {
			sb.abort()
			return nil, err
		}
	}
	if !sb.spilled {
		// The budget was never exceeded: concatenate the page buffers
		// into the flat resident arrays of a plain BuildCSR result.
		g.Neighbors = make([]int32, 0, sb.entries)
		g.Common = make([]int32, 0, sb.entries)
		g.ARCS = make([]float64, 0, sb.entries)
		g.EntropySum = make([]float64, 0, sb.entries)
		for i := range sb.done {
			g.Neighbors = append(g.Neighbors, sb.done[i].nbr...)
			g.Common = append(g.Common, sb.done[i].common...)
			g.ARCS = append(g.ARCS, sb.done[i].arcs...)
			g.EntropySum = append(g.EntropySum, sb.done[i].ent...)
			sb.done[i] = pageBuf{}
		}
		g.Neighbors = append(g.Neighbors, sb.cur.nbr...)
		g.Common = append(g.Common, sb.cur.common...)
		g.ARCS = append(g.ARCS, sb.cur.arcs...)
		g.EntropySum = append(g.EntropySum, sb.cur.ent...)
		g.Weights = make([]float64, len(g.Neighbors))
		return g, nil
	}
	if sb.cur.len() > 0 || len(sb.pg.startNode) == 1 {
		if err := sb.sealPage(c.NumProfiles); err != nil {
			sb.abort()
			return nil, err
		}
	}
	// Patch the final boundary to cover trailing edgeless nodes.
	sb.pg.startNode[len(sb.pg.startNode)-1] = int32(c.NumProfiles)
	pg := sb.pg
	pg.cache = store.NewCache(opt.cacheBytes())
	pg.nodePage = make([]int32, c.NumProfiles)
	for p := 0; p+1 < len(pg.startNode); p++ {
		for u := pg.startNode[p]; u < pg.startNode[p+1]; u++ {
			pg.nodePage[u] = int32(p)
		}
	}
	g.pages = pg
	return g, nil
}
