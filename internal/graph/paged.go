package graph

// Beyond-RAM CSR: the spilled form of the blocking graph. The per-entry
// arrays (Neighbors, the co-occurrence stats, Weights) are cut into
// node-aligned pages and written as CRC-framed segments (internal/
// store); Offsets, BlockCounts and all node-level state stay resident,
// so the resident footprint of a spilled graph is O(nodes) plus what
// its readers hold instead of O(entries).
//
// Pages are cut only at node boundaries, so one adjacency run never
// straddles two pages and a run is always a sub-slice of a single
// decoded page. A hub node whose run exceeds the page target simply
// gets a larger page of its own. There are two ways to read one:
//
//   - Sequential readers — the pruning passes (ascending node sweeps
//     over contiguous node ranges), the canonical sweeps, the weighting
//     kernel — each hold a private cursor
//     (RunReader, weighBufs): one reusable decoded page per stream read
//     plus one read buffer, so crossing a page boundary costs one frame
//     load and one decode and nothing else. A pass holds workers x one
//     page per stream, for as long as it runs.
//   - Random row reads (CSR.Run) go through the bounded LRU cache,
//     which decodes a whole page per miss and serializes loads: fine
//     for the occasional row, and what the sequential passes used to
//     pay per page. No product path reads this way any more — an index
//     serves from resident rows frozen out of the graph — and the cache
//     goes with the benchmark probe that still times it.
//
// Both go through loadPage, so every page handed out was CRC-checked on
// that load. Read failures are sticky: a page that fails validation (a
// named internal/store error — corruption fails closed, never yields
// plausible bytes) records itself on the CSR and reads as zeros, and
// every pass over the graph refuses a recorded error at entry and
// returns one raised while it ran (see CSR.Err). That keeps the hot
// accessors free of error returns without ever letting a corrupt build
// complete silently.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"blast/internal/blocking"
	"blast/internal/par"
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
	// CacheBytes bounds the decoded-page LRU cache that serves random
	// row reads (CSR.Run); 0 derives a default from MemoryBudget (a
	// quarter of it, clamped to [1MiB, 256MiB]). Sequential passes do
	// not use the cache: while one runs it additionally holds one
	// decoded page per worker and stream it reads (20 bytes per page
	// entry for a pruning pass, 48 for weighting).
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
	// wtsGen numbers the weights segments: a re-weighting writes the
	// next one beside the current and swaps on success.
	wtsGen int
	// loads counts segment frames read, by every path.
	loads atomic.Int64

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

// entry is the element type of a spilled stream.
type entry interface{ int32 | float64 }

// entryWidth is the encoded size of one element.
func entryWidth[T entry]() int {
	var zero T
	return binary.Size(zero)
}

// appendEntries appends the page encoding of s — little-endian words —
// to dst.
func appendEntries[T entry](dst []byte, s []T) []byte {
	dst = slices.Grow(dst, len(s)*entryWidth[T]())
	switch s := any(s).(type) {
	case []int32:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case []float64:
		for _, v := range s {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// decodeEntries is the inverse of appendEntries: it fills dst from b,
// whose length the caller has checked.
func decodeEntries[T entry](dst []T, b []byte) {
	switch dst := any(dst).(type) {
	case []int32:
		for i := range dst {
			dst[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	case []float64:
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// loadPage is the one reader of spilled pages: it loads frame `page` of
// a stream — positioned read, CRC-32C and header checks in the arena,
// then the payload length against the page table — and decodes it into
// dst. Both dst and the read buffer raw are reused when large enough
// and handed back, so a reader that keeps them allocates on its first
// page only. On failure dst comes back zeroed at the page's length:
// callers without an error return keep their shape and never see bytes
// of a frame that did not check out.
func loadPage[T entry](pg *pagedEntries, stream, page int, dst []T, raw []byte) ([]T, []byte, error) {
	n, width := pg.pageLen(page), entryWidth[T]()
	if cap(dst) < n {
		dst = make([]T, n)
	}
	dst = dst[:n]
	if need := store.FrameHeaderSize + n*width; cap(raw) < need {
		raw = make([]byte, need)
	}
	var payload []byte
	err := store.ErrClosed // a released stream
	if a := pg.arenas[stream]; a != nil {
		pg.loads.Add(1)
		payload, err = a.Load(page, raw)
	}
	if err == nil && len(payload) != n*width {
		err = fmt.Errorf("%w: %d payload bytes for %d entries", store.ErrCorruptSegment, len(payload), n)
	}
	if err != nil {
		clear(dst)
		return dst, raw, fmt.Errorf("%s page %d: %w", streamNames[stream], page, err)
	}
	decodeEntries(dst, payload)
	return dst, raw, nil
}

// cachedPage returns one decoded page through the shared cache, for
// random reads. A failed load records the sticky error and yields a
// zeroed page that is not cached.
func cachedPage[T entry](pg *pagedEntries, stream, page int) []T {
	var failed []T
	v, err := pg.cache.Get(cacheKey(stream, page), func() (any, int64, error) {
		s, _, err := loadPage[T](pg, stream, page, nil, nil)
		if err != nil {
			failed = s
			return nil, 0, err
		}
		return s, int64(len(s) * entryWidth[T]()), nil
	})
	if err != nil {
		pg.noteErr(err)
		return failed
	}
	return v.([]T)
}

// run returns node u's adjacency slices out of its cached page. wts is
// nil until the graph has been weighted.
func (pg *pagedEntries) run(u int, lo, hi int64) (nbr []int32, wts []float64) {
	if lo == hi {
		return nil, nil
	}
	p := int(pg.nodePage[u])
	base := pg.startEntry[p]
	nbr = cachedPage[int32](pg, streamNbr, p)[lo-base : hi-base]
	if pg.arenas[streamWts] != nil {
		wts = cachedPage[float64](pg, streamWts, p)[lo-base : hi-base]
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

// ---- run cursor ----------------------------------------------------------

// RunReader is a private cursor over a CSR's adjacency runs for one
// sequential reader: a pruning worker in one pass, a canonical sweep.
// On a resident graph it hands out the plain sub-slices. On a spilled
// graph it owns one decoded page per stream it reads and one read
// buffer, all reused: moving to another page costs one checked frame
// load and one decode into the same memory — no lock, no cache, no
// allocation after the first page — so an ascending sweep loads every
// page once. A page that fails validation records the graph's sticky
// error (CSR.Err) and reads as zeros. A RunReader must not be shared
// between goroutines; any number of them may read one graph
// concurrently.
type RunReader struct {
	g   *CSR
	nbr cursorPage[int32]
	wts cursorPage[float64]
	raw []byte
}

// cursorPage is the page of one stream a cursor currently holds.
type cursorPage[T entry] struct {
	next int // 1 + the page held; 0 before the first load
	data []T
}

// at returns page p of the stream, loading it over the page held.
func (c *cursorPage[T]) at(pg *pagedEntries, stream, p int, raw *[]byte) []T {
	if c.next != p+1 {
		var err error
		if c.data, *raw, err = loadPage(pg, stream, p, c.data, *raw); err != nil {
			pg.noteErr(err)
		}
		c.next = p + 1
	}
	return c.data
}

// Reader returns a new cursor over g's runs.
func (g *CSR) Reader() *RunReader { return &RunReader{g: g} }

// Neighbors returns node u's neighbor ids. Like every slice a cursor
// hands out, it is valid until the cursor's next call.
func (r *RunReader) Neighbors(u int) []int32 {
	g := r.g
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	pg := g.pages
	if pg == nil {
		return g.Neighbors[lo:hi]
	}
	if lo == hi {
		return nil
	}
	p := int(pg.nodePage[u])
	base := pg.startEntry[p]
	return r.nbr.at(pg, streamNbr, p, &r.raw)[lo-base : hi-base]
}

// Run returns node u's adjacency run as CSR.Run does — neighbor ids and,
// once the graph has been weighted, the matching weights — without
// touching the page cache.
func (r *RunReader) Run(u int) (nbr []int32, wts []float64) {
	g := r.g
	pg := g.pages
	if pg == nil {
		return g.Run(u)
	}
	nbr = r.Neighbors(u)
	if nbr == nil || pg.arenas[streamWts] == nil {
		return nbr, nil
	}
	p := int(pg.nodePage[u])
	base := pg.startEntry[p]
	return nbr, r.wts.at(pg, streamWts, p, &r.raw)[g.Offsets[u]-base : g.Offsets[u+1]-base]
}

// ---- spilled accessors on CSR -------------------------------------------

// Spilled reports whether the per-entry arrays are file-backed. The
// node-level arrays (Offsets, BlockCounts) are always resident.
func (g *CSR) Spilled() bool { return g.pages != nil }

// Err returns the first page read/decode failure observed on a spilled
// graph (nil for resident graphs and healthy spilled ones). Reads from
// a failing page observe zeroed entries so hot accessors stay free of
// error returns; the passes that consume a spilled graph — the
// canonical sweeps, the weighting kernel, every chunked pruning pass —
// refuse a graph whose error is set and return one raised while they
// ran, so no caller can adopt output derived from zeroed runs.
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

// CloseAfter closes the graph on the way out of a stage that returned
// err, and returns err — joined with Close's own failure if there is
// one, untouched otherwise, so callers can still compare it with
// context.Canceled. A spilled build owns segment files nobody else will
// delete; every failure exit of a build goes through here.
func (g *CSR) CloseAfter(err error) error {
	if cerr := g.Close(); cerr != nil {
		return errors.Join(err, cerr)
	}
	return err
}

// CacheStats returns the page-cache counters of a spilled graph (zero
// for resident graphs, which have no cache). Only random row reads
// (Run) go through the cache; see PageLoads for all page traffic.
func (g *CSR) CacheStats() store.CacheStats {
	if g.pages == nil {
		return store.CacheStats{}
	}
	return g.pages.cache.Stats()
}

// PageLoads returns how many segment frames a spilled graph has read
// back so far, by any path — cursors, cache misses, the weighting
// kernel (0 for resident graphs).
func (g *CSR) PageLoads() int64 {
	if g.pages == nil {
		return 0
	}
	return g.pages.loads.Load()
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

// weighBufs is one weighting worker's page of every stream it reads,
// the weights it computes and their encoding.
type weighBufs struct {
	nbr, common    []int32
	arcs, ent, wts []float64
	raw, enc       []byte
}

// weighPage loads page p's adjacency and statistics, weighs its rows
// and leaves the encoded weights frame in b.enc.
func (g *CSR) weighPage(ctx context.Context, b *weighBufs, p int, fn EntryWeight) (err error) {
	pg := g.pages
	if b.nbr, b.raw, err = loadPage(pg, streamNbr, p, b.nbr, b.raw); err != nil {
		return err
	}
	if b.common, b.raw, err = loadPage(pg, streamCommon, p, b.common, b.raw); err != nil {
		return err
	}
	if b.arcs, b.raw, err = loadPage(pg, streamARCS, p, b.arcs, b.raw); err != nil {
		return err
	}
	if b.ent, b.raw, err = loadPage(pg, streamEnt, p, b.ent, b.raw); err != nil {
		return err
	}
	n := pg.pageLen(p)
	b.wts = slices.Grow(b.wts[:0], n)[:n]
	err = g.weighRows(ctx, int(pg.startNode[p]), int(pg.startNode[p+1]), pg.startEntry[p],
		b.nbr, b.common, b.arcs, b.ent, b.wts, fn)
	if err != nil {
		return err
	}
	b.enc = appendEntries(b.enc[:0], b.wts)
	return nil
}

// weighSpilled is WeighEntries over a spilled graph: workers weigh
// disjoint pages, `workers` at a time, each through its own reused
// buffers, and the weight frames are appended in page order. An I/O
// failure is sticky on the graph (Err) as well as returned;
// cancellation is only returned.
func (g *CSR) weighSpilled(ctx context.Context, workers int, fn EntryWeight) error {
	err := g.replaceWeights(ctx, workers, fn)
	if err != nil && ctx.Err() == nil {
		g.pages.noteErr(err)
	}
	return err
}

// replaceWeights writes the new weights segment beside the current one
// and swaps only when every page is in: a failed or cancelled weighting
// removes its half-written segment and leaves the previous weights
// readable.
func (g *CSR) replaceWeights(ctx context.Context, workers int, fn EntryWeight) error {
	pg := g.pages
	pg.wtsGen++
	next, err := store.CreateFile(fmt.Sprintf("%s/%s.%d.seg", pg.dir, streamNames[streamWts], pg.wtsGen))
	if err != nil {
		return err
	}
	if err := g.weighPages(ctx, next, workers, fn); err != nil {
		if rmErr := next.CloseAndRemove(); rmErr != nil {
			err = errors.Join(err, rmErr)
		}
		return err
	}
	old := pg.arenas[streamWts]
	pg.arenas[streamWts] = next
	if old == nil {
		return nil
	}
	// No reader may be served a page of the replaced weights.
	pg.cache.Drop(func(key uint64) bool { return keyStream(key) == streamWts })
	return old.CloseAndRemove()
}

func (g *CSR) weighPages(ctx context.Context, wts *store.FileArena, workers int, fn EntryWeight) error {
	pages := g.pages.pages()
	bufs := make([]weighBufs, min(workers, pages))
	for base := 0; base < pages; base += len(bufs) {
		if err := ctx.Err(); err != nil {
			return err
		}
		n := min(len(bufs), pages-base)
		if err := par.Do(n, func(i int) error { return g.weighPage(ctx, &bufs[i], base+i, fn) }); err != nil {
			return err
		}
		for i := range bufs[:n] {
			if _, err := wts.Append(bufs[i].enc); err != nil {
				return err
			}
		}
	}
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
	sb.encBuf = appendEntries(sb.encBuf[:0], p.nbr)
	if _, err := sb.pg.arenas[streamNbr].Append(sb.encBuf); err != nil {
		return err
	}
	sb.encBuf = appendEntries(sb.encBuf[:0], p.common)
	if _, err := sb.pg.arenas[streamCommon].Append(sb.encBuf); err != nil {
		return err
	}
	sb.encBuf = appendEntries(sb.encBuf[:0], p.arcs)
	if _, err := sb.pg.arenas[streamARCS].Append(sb.encBuf); err != nil {
		return err
	}
	sb.encBuf = appendEntries(sb.encBuf[:0], p.ent)
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

// BuildCSRSpillCtx constructs the same graph as BuildCSR — per-entry
// values bit-identical, since the per-node accumulation loop is shared
// — under a resident-memory budget: the adjacency accumulates in
// node-aligned pages that spill to CRC-framed segment files once the
// budget is exceeded. A build that stays under the budget returns a
// plain resident CSR; one that exceeds it returns a spilled CSR whose
// per-entry arrays page in through a bounded cache (see SpillOptions).
// Spilled graphs must be Closed to release their segment files.
func BuildCSRSpillCtx(ctx context.Context, c *blocking.Collection, opt SpillOptions) (*CSR, error) {
	ix := blocking.NewInverse(c)
	g := newCSRHeader(c, ix)
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
		visited := acc.walk(c, inv, ix, int32(n), true)
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
