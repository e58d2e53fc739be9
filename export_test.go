package blast

// Test-only exports bridging the external test package (blast_test) to
// unexported internals.

// MBKeyForBench exposes mbKey to the benchmark suite.
func MBKeyForBench(i int) string { return mbKey(i) }

// holdCommits blocks every group commit of srv until release is called:
// the call at the head of the write queue waits for the server lock, and
// every later call queues behind it, so a test can fill the queue
// deterministically. Admitted and Quiesce block while it is held;
// reads, View and WriteStats do not.
func holdCommits(srv *Server) (release func()) {
	srv.mu.Lock()
	return srv.mu.Unlock
}
