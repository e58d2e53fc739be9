package main

// The run context shared by the workloads: metric readings (medians of
// in-process samples with their quartiles), the attempted/failed
// operation count behind failed_ops_share, pairs hashing and the small
// timing helpers.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Reading is one metric of one run: the median of N in-process samples
// with their quartiles, or a single value (N == 1).
type Reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// config is what the command line selects for one run.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	quick    bool
}

type bench struct {
	config
	spec *spec
	out  string  // <root>/bench/e2e/out: traces, reports, scratch dirs
	tr   *tracer // nil on the untraced run

	dirs  []string  // scratch directories, removed when the run ends
	rates []float64 // lookups per second, one sample per read window

	readings  map[string]Reading
	attempted int
	failed    int
	failures  []string
}

func newBench(cfg config, sp *spec, out string) *bench {
	b := &bench{config: cfg, spec: sp, out: out, readings: map[string]Reading{}}
	if cfg.traced {
		b.tr = newTracer(cfg.workload)
	}
	return b
}

// rec records the median of samples under name. Recording a name twice
// is a harness bug and panics.
func (b *bench) rec(name string, samples ...float64) {
	if _, dup := b.readings[name]; dup {
		panic("metric recorded twice: " + name)
	}
	if len(samples) == 0 {
		panic("metric without samples: " + name)
	}
	q1, med, q3 := quartiles(samples)
	b.readings[name] = Reading{Value: med, Unit: b.spec.unit(name), N: len(samples), Q1: q1, Q3: q3}
}

// recSpans records the durations of every span with the given name.
func (b *bench) recSpans(metric, spanName string) {
	if d := b.tr.durations(spanName); len(d) > 0 {
		b.rec(metric, d...)
	}
}

// ok counts one attempted operation and, when cond is false, one
// failure with its description.
func (b *bench) ok(cond bool, format string, args ...any) bool {
	b.attempted++
	if !cond {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// must counts err == nil as one attempted operation.
func (b *bench) must(err error, what string) bool {
	return b.ok(err == nil, "%s: %v", what, err)
}

// sameHash is the correctness gate between two paths that must retain
// the same pairs.
func (b *bench) sameHash(got, want uint64, what string) {
	b.ok(got == want, "%s: pairs hash %016x != %016x", what, got, want)
}

// scratch returns a fresh directory under out, inside the checkout.
// Workloads remove theirs as soon as they are done with them — dirty
// files left lying around are written back on a later repetition's
// clock, and its WAL fsyncs queue behind them; cleanup removes whatever
// an abandoned workload left.
func (b *bench) scratch(prefix string) string {
	dir, err := os.MkdirTemp(b.out, prefix+"-*")
	if err != nil {
		panic(err)
	}
	b.dirs = append(b.dirs, dir)
	return dir
}

func (b *bench) cleanup() {
	for _, dir := range b.dirs {
		b.must(os.RemoveAll(dir), "remove scratch directory")
	}
}

// reps plans the timed repetitions of a unit of work that took est
// seconds in the warm-up: as many as fit the run's measuring time (4 on
// the builder), at least 3, 1 at -quick scale. The traced run keeps 2:
// it measures shares, not the gated medians.
func (b *bench) reps(est float64) int {
	switch {
	case b.quick:
		return 1
	case b.traced:
		return 2
	}
	return min(max(int(b.seconds/est+0.5), 3), 9)
}

// window is the length of one closed-loop read window.
func (b *bench) window() time.Duration {
	if b.quick {
		return 10 * time.Millisecond
	}
	return time.Duration(b.seconds / 40 * float64(time.Second))
}

// ---- statistics ----

// quartiles returns Q1, the median and Q3 by linear interpolation.
func quartiles(samples []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(samples []float64) float64 {
	_, m, _ := quartiles(samples)
	return m
}

// percentile returns the q-quantile (nearest rank) of samples.
func percentile(samples []float64, q float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

func sum(samples []float64) (t float64) {
	for _, v := range samples {
		t += v
	}
	return t
}

// ---- measurement helpers ----

// timed returns f's wall time in seconds.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// quiet forces a collection between repetitions so one repetition's
// garbage is not collected on the next one's clock.
func quiet() { runtime.GC() }

// liveHeapMB is HeapAlloc after two forced collections (the second
// reclaims what the first one's finalizers released).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1e6
}

// readWindows drives op in a closed loop (one client: the next read is
// issued when the previous one returned) for two windows and keeps the
// reads per second of each. Workloads call it after every repetition, so
// the windows behind lookups_per_s are spread over the whole run and a
// few seconds of interference from a neighbour cannot own the median.
// op receives the running count.
func (b *bench) readWindows(op func(i int)) {
	i := 0
	for w := 0; w < 2; w++ {
		n, t0, d := 0, time.Now(), b.window()
		var el time.Duration
		for {
			op(i)
			i++
			n++
			if n%64 == 0 {
				if el = time.Since(t0); el >= d {
					break
				}
			}
		}
		b.rates = append(b.rates, float64(n)/el.Seconds())
	}
}

// permutation returns a seeded permutation of [0, n) (SplitMix64 +
// Fisher-Yates): the order lookups draw profiles in.
func permutation(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	x := seed
	for i := n - 1; i > 0; i-- {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		j := int(z % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// hashPairs is FNV-64a over the retained pairs in the order given
// (every path emits canonical order, so order is part of the contract).
func hashPairs(pairs []IDPair) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(buf[:4], uint32(p.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(p.V))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// dirMB sums the file sizes under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6
}

// copyDir copies the regular files of a directory tree. Snapshot files
// are hard-linked instead: the product writes them once (tmp + rename)
// and only ever unlinks them, and copying hundreds of megabytes would
// leave dirty pages for the next repetition's fsyncs to wait behind.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !info.Mode().IsRegular() {
			return nil
		}
		if filepath.Ext(path) == ".snap" {
			return os.Link(path, target)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// abort unwinds a workload whose product call failed; runWorkload
// recovers it and reports the run as incorrect.
type abort struct{ msg string }

// fatal records a product error as a failed operation and abandons the
// workload: nothing measured after it would mean anything.
func (b *bench) fatal(err error, what string) {
	if err != nil {
		b.ok(false, "%s: %v", what, err)
		panic(abort{what})
	}
}

// setup runs the workload's set-up several times (the last one's
// products are the ones the run uses) and records the median as
// setup_s, so that work moved into set-up shows. f receives the root
// span of the traced run's single set-up.
func (b *bench) setup(f func(root int)) {
	once := b.quick || b.traced
	var s []float64
	for i := 0; i < 7; i++ {
		if i >= 1 && once || i >= 3 && sum(s) >= 1 {
			break
		}
		quiet()
		root := b.tr.start(0, "setup", i)
		s = append(s, timed(func() { f(root) }))
		b.tr.end(root)
	}
	b.rec("setup_s", s...)
}
