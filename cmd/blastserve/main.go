// Command blastserve runs the blasthttp front end over a blast.Server:
// a network-facing candidate-serving daemon with batched writes,
// explicit backpressure, and graceful drain.
//
// Usage:
//
//	blastserve -addr :8080 -dataset census -scale 0.1 -seed 42
//	blastserve -addr :8080 -dataset prd -dir /var/lib/blast  # durable
//
// The server bootstraps from a synthetic benchmark dataset (the same
// registry datagen and blastbench use), runs the BLAST pipeline on it,
// and serves the blasthttp API. With -dir it is durable: admitted
// batches are journaled before ids are returned, and an existing
// directory is recovered on startup.
//
// On SIGTERM or SIGINT the server drains gracefully: the listener
// stops accepting, in-flight requests finish, the write path quiesces
// (every admitted profile applied and published on every shard), a
// final snapshot is persisted (durable servers), and the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blast"
	"blast/blasthttp"
	"blast/internal/datasets"
)

// config is the parsed command line.
type config struct {
	addr    string
	dataset string
	scale   float64
	seed    uint64
	shards  int
	swapOps int

	dir           string
	syncEvery     int
	snapshotEvery int

	maxBatch        int
	maxPending      int
	maxPendingBytes int64
	maxBodyBytes    int64

	drainTimeout time.Duration
}

// parseFlags parses and validates the command line. Validation errors
// are usage errors: main exits 2 on them, after flag-style diagnostics
// on w.
func parseFlags(args []string, w io.Writer) (config, error) {
	fs := flag.NewFlagSet("blastserve", flag.ContinueOnError)
	fs.SetOutput(w)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address (host:port)")
	fs.StringVar(&cfg.dataset, "dataset", "census", "bootstrap dataset: ar1 ar2 prd mov dbp census cora cddb paper-fig1")
	fs.Float64Var(&cfg.scale, "scale", 0.1, "fraction of paper-scale size for the bootstrap dataset")
	fs.Uint64Var(&cfg.seed, "seed", 42, "random seed for the bootstrap dataset")
	fs.IntVar(&cfg.shards, "shards", 2, "shard workers, each owning the rows hashed onto it")
	fs.IntVar(&cfg.swapOps, "swap-ops", 0, "a snapshot falls due every N applied profiles and is published once the backlog the shards held by then is applied (0 = default)")
	fs.StringVar(&cfg.dir, "dir", "", "durable directory (empty = in-memory only)")
	fs.IntVar(&cfg.syncEvery, "sync-every", 0, "fsync the write-ahead log every N admitted batches (0 = every batch)")
	fs.IntVar(&cfg.snapshotEvery, "snapshot-every", 0, "persist a snapshot every N admitted batches (0 = default)")
	fs.IntVar(&cfg.maxBatch, "max-batch", 0, "profiles coalesced into one admitted batch (0 = default)")
	fs.IntVar(&cfg.maxPending, "max-pending", 0, "insert requests in flight before 429 (0 = default)")
	fs.Int64Var(&cfg.maxPendingBytes, "max-pending-bytes", 0, "insert bytes in flight before 429 (0 = default)")
	fs.Int64Var(&cfg.maxBodyBytes, "max-body-bytes", 0, "largest accepted insert body (0 = default)")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "bound on the graceful drain")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	fail := func(format string, a ...any) (config, error) {
		err := fmt.Errorf(format, a...)
		fmt.Fprintf(w, "blastserve: %v\n", err)
		fs.Usage()
		return cfg, err
	}
	if cfg.addr == "" {
		return fail("-addr must not be empty")
	}
	if cfg.dataset == "" {
		return fail("-dataset must not be empty")
	}
	if !(cfg.scale > 0) || math.IsInf(cfg.scale, 0) { // rejects NaN, 0, negative
		return fail("-scale must be a positive finite number, got %v", cfg.scale)
	}
	if cfg.shards < 1 {
		return fail("-shards must be at least 1, got %d", cfg.shards)
	}
	if cfg.drainTimeout <= 0 {
		return fail("-drain-timeout must be positive, got %v", cfg.drainTimeout)
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	// SIGTERM/SIGINT cancel ctx; run then drains and exits cleanly. The
	// drain itself is bounded by -drain-timeout, so a wedged shard
	// cannot hold the process hostage.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := run(ctx, cfg, os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "blastserve:", err)
		os.Exit(1)
	}
}

// run bootstraps the server, serves until ctx is canceled (the signal
// path) or the HTTP server fails, then drains gracefully. If ready is
// non-nil the bound listen address is sent to it once the server
// accepts connections — the test hook for -addr :0.
func run(ctx context.Context, cfg config, out io.Writer, ready chan<- string) error {
	gen, err := datasets.ByName(cfg.dataset)
	if err != nil {
		return err
	}
	ds := gen(cfg.scale, cfg.seed)
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		return err
	}
	srv, err := p.Serve(ctx, ds, blast.ServerOptions{
		Shards:        cfg.shards,
		SwapOps:       cfg.swapOps,
		Dir:           cfg.dir,
		SyncEvery:     cfg.syncEvery,
		SnapshotEvery: cfg.snapshotEvery,
	})
	if err != nil {
		return err
	}
	h := blasthttp.NewHandler(srv, blasthttp.Options{
		MaxBatch:           cfg.maxBatch,
		MaxPendingRequests: cfg.maxPending,
		MaxPendingBytes:    cfg.maxPendingBytes,
		MaxBodyBytes:       cfg.maxBodyBytes,
	})

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return errors.Join(err, h.Close(), srv.Close())
	}
	durable := ""
	if cfg.dir != "" {
		durable = ", durable " + cfg.dir
	}
	fmt.Fprintf(out, "blastserve: %s scale %g seed %d: %d profiles, %d shards%s\n",
		cfg.dataset, cfg.scale, cfg.seed, srv.NumProfiles(), cfg.shards, durable)
	fmt.Fprintf(out, "blastserve: serving on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	hs := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return errors.Join(err, h.Close(), srv.Close())
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting and finish in-flight requests,
	// commit + publish every admitted write, then close the server —
	// which, on a durable server, persists a final snapshot at the
	// drained position so the next open restores without replay.
	fmt.Fprintln(out, "blastserve: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	var errs []error
	if err := hs.Shutdown(drainCtx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if err := h.Drain(drainCtx); err != nil {
		errs = append(errs, fmt.Errorf("drain: %w", err))
	}
	if err := h.Close(); err != nil {
		errs = append(errs, err)
	}
	published := srv.NumProfiles()
	if err := srv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("server close: %w", err))
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Fprintf(out, "blastserve: drained, %d profiles published\n", published)
	return nil
}
