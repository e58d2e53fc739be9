package blast

// Crash-recovery harness: a child copy of the test binary runs a
// durable server and streams admitted batches, reporting each admission
// on stdout; the parent SIGKILLs it mid-stream — a real process death
// at an arbitrary admitted-batch boundary, not a simulated one — then
// reopens the directory in-process and checks the recovery contract:
// every batch whose ids were returned under SyncEvery=1 survives, and
// the recovered server is byte-identical to a never-crashed reference.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"
)

const crashDirEnv = "BLAST_CRASH_DIR"

// TestCrashChild is the child half of the harness: not a test in its
// own right (it skips unless re-executed with the env var), it opens a
// durable server over the directory the parent chose and inserts the
// deterministic batch sequence until killed, printing each admitted
// batch index only after InsertAll returned its ids.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash child: run by the harness only")
	}
	snapEvery, _ := strconv.Atoi(os.Getenv("BLAST_CRASH_SNAP"))
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve(context.Background(), durDataset(), ServerOptions{
		Shards: 2, SwapOps: 1, Dir: dir, SyncEvery: 1, SnapshotEvery: snapEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 1000; k++ {
		if _, err := srv.InsertAll(context.Background(), durBatchFor(k)); err != nil {
			t.Fatalf("insert batch %d: %v", k, err)
		}
		// The ids are out: the batch is admitted and, at SyncEvery 1,
		// fsynced. Only now may the parent count it as durable.
		fmt.Printf("admitted %d\n", k)
	}
	// Never reached: the parent kills the process mid-stream.
}

// TestCrashRecovery kills the child after varying numbers of admitted
// batches, under both recovery modes (snapshot+suffix and pure WAL
// replay), and checks the recovered state.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("forks the test binary")
	}
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		killAfter int // admitted batches before SIGKILL
		snapEvery int
	}{
		{1, -1},
		{4, -1},
		{3, 1},
		{7, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("kill=%d/snap=%d", tc.killAfter, tc.snapEvery), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$", "-test.v")
			cmd.Env = append(os.Environ(),
				crashDirEnv+"="+dir,
				"BLAST_CRASH_SNAP="+strconv.Itoa(tc.snapEvery),
			)
			out, err := cmd.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Count admissions off the pipe; kill after the threshold. The
			// child may have admitted MORE than we saw when the signal
			// lands — recovery must surface at least the observed count.
			admitted := 0
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				var k int
				if _, err := fmt.Sscanf(sc.Text(), "admitted %d", &k); err != nil {
					continue
				}
				admitted = k + 1
				if admitted >= tc.killAfter {
					break
				}
			}
			if err := cmd.Process.Kill(); err != nil {
				t.Fatal(err)
			}
			cmd.Wait() // reaps; the kill makes a non-nil error expected
			if admitted < tc.killAfter {
				t.Fatalf("child died after %d admissions, wanted %d", admitted, tc.killAfter)
			}

			start := time.Now()
			srv, err := p.Serve(context.Background(), durDataset(), ServerOptions{
				Shards: 2, SwapOps: 1, Dir: dir, SyncEvery: 1, SnapshotEvery: tc.snapEvery,
			})
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			t.Logf("recovered in %v", time.Since(start))
			// Every admission whose ids were returned was fsynced first, so
			// none may be lost; a batch in flight at the kill may or may not
			// have landed on the log — either way the recovered prefix must
			// be a consistent, reference-identical state.
			recovered := (srv.Admitted() - 40) / durBatchSize
			if recovered < admitted {
				t.Fatalf("recovered %d batches, child had admitted at least %d", recovered, admitted)
			}
			checkRecovered(t, "post-crash", p, srv, recovered)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
