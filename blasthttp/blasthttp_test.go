package blasthttp

// Tests of the HTTP serving surface: endpoint semantics and error
// codes, the HTTP-vs-in-process byte differential, write coalescing,
// bounded-backpressure 429s under saturation, cancellation, graceful
// drain, and goroutine-leak checks — the network-facing half of the
// serving-tier contract (the in-process half lives in server_test.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blast"
	"blast/internal/model"
	"blast/internal/stats"
)

// testProfile synthesizes one profile with overlapping tokens so
// inserts actually join blocks.
func testProfile(rng *stats.RNG, id string) model.Profile {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	p := model.Profile{ID: id}
	n := 2 + rng.Intn(3)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(words[rng.Intn(len(words))])
	}
	p.Add("title", b.String())
	p.Add("year", fmt.Sprintf("%d", 1990+rng.Intn(30)))
	return p
}

// testDataset builds a small dirty dataset.
func testDataset(rng *stats.RNG, n int) *model.Dataset {
	e := model.NewCollection("e")
	for i := 0; i < n; i++ {
		e.Append(testProfile(rng, fmt.Sprintf("p%d", i)))
	}
	return &model.Dataset{Name: "t", Kind: model.Dirty, E1: e, Truth: model.NewGroundTruth()}
}

// newTestServer serves a fresh small dataset on the given shard count.
func newTestServer(t *testing.T, shards int) *blast.Server {
	t.Helper()
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	srv, err := p.Serve(context.Background(), testDataset(rng, 40), blast.ServerOptions{Shards: shards, SwapOps: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// insertBody renders an insert request body for a batch of profiles.
func insertBody(profiles ...model.Profile) []byte {
	req := InsertRequest{Profiles: make([]ProfileJSON, len(profiles))}
	for i, p := range profiles {
		req.Profiles[i] = FromProfile(p)
	}
	buf, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return buf
}

func postJSON(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, out
}

func getBody(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, out
}

// TestEndpointsAndDifferential drives every endpoint once and
// byte-compares each read response against the in-process oracle.
func TestEndpointsAndDifferential(t *testing.T) {
	srv := newTestServer(t, 2)
	h := NewHandler(srv, Options{})
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()
	rng := stats.NewRNG(11)

	// Insert a batch; ids must be the next global ids in order.
	profs := []model.Profile{testProfile(rng, "n0"), testProfile(rng, "n1"), testProfile(rng, "n2")}
	resp, body := postJSON(t, client, ts.URL+"/v1/insert", insertBody(profs...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status %d: %s", resp.StatusCode, body)
	}
	var ins InsertResponse
	if err := json.Unmarshal(body, &ins); err != nil {
		t.Fatalf("insert response: %v", err)
	}
	if len(ins.IDs) != 3 {
		t.Fatalf("insert ids %v, want 3", ins.IDs)
	}
	for k, id := range ins.IDs {
		if want := 40 + k; id != want {
			t.Errorf("id[%d] = %d, want %d", k, id, want)
		}
	}

	// Quiesce over HTTP: every admitted profile published.
	resp, body = postJSON(t, client, ts.URL+"/v1/quiesce", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quiesce status %d: %s", resp.StatusCode, body)
	}
	var q QuiesceResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if q.Admitted != 43 || q.Published != 43 {
		t.Fatalf("quiesce %+v, want 43/43", q)
	}

	// Differential: candidates, thresholds (boundary ids included) and
	// pairs over HTTP must be byte-identical to the in-process oracle.
	for _, p := range []int{0, 1, 17, 40, 42, 43, 44, 100000, -3} {
		want, err := CandidatesBody(context.Background(), srv, p)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := getBody(t, client, fmt.Sprintf("%s/v1/candidates?profile=%d", ts.URL, p))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("candidates(%d) status %d", p, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("candidates content-type %q", ct)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("candidates(%d): HTTP %s != in-process %s", p, got, want)
		}
		wantT, err := ThresholdBody(context.Background(), srv, p)
		if err != nil {
			t.Fatal(err)
		}
		resp, gotT := getBody(t, client, fmt.Sprintf("%s/v1/threshold?profile=%d", ts.URL, p))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("threshold(%d) status %d", p, resp.StatusCode)
		}
		if !bytes.Equal(gotT, wantT) {
			t.Errorf("threshold(%d): HTTP %s != in-process %s", p, gotT, wantT)
		}
	}
	wantPairs, err := PairsBody(context.Background(), srv)
	if err != nil {
		t.Fatal(err)
	}
	resp, gotPairs := getBody(t, client, ts.URL+"/v1/pairs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pairs status %d", resp.StatusCode)
	}
	if !bytes.Equal(gotPairs, wantPairs) {
		t.Errorf("pairs: HTTP body diverges from in-process encoding (%d vs %d bytes)", len(gotPairs), len(wantPairs))
	}

	// A candidates response must carry a non-null JSON array even for
	// profiles with no retained candidates.
	_, emptyBody := getBody(t, client, ts.URL+"/v1/candidates?profile=99999")
	if !strings.Contains(string(emptyBody), `"candidates":[]`) {
		t.Errorf("empty candidates response not an empty array: %s", emptyBody)
	}

	// healthz + statsz.
	resp, body = getBody(t, client, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz %d %s", resp.StatusCode, body)
	}
	resp, body = getBody(t, client, ts.URL+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d", resp.StatusCode)
	}
	var st StatszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz decode: %v (%s)", err, body)
	}
	if st.Admitted != 43 || len(st.Shards) != 2 || st.Writes.AdmittedProfiles != 3 {
		t.Errorf("statsz %+v", st)
	}
}

// TestRequestValidation covers the 4xx surface.
func TestRequestValidation(t *testing.T) {
	srv := newTestServer(t, 1)
	h := NewHandler(srv, Options{MaxBodyBytes: 512})
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()

	cases := []struct {
		name   string
		method string
		url    string
		body   string
		status int
	}{
		{"missing profile", "GET", "/v1/candidates", "", http.StatusBadRequest},
		{"bad profile", "GET", "/v1/candidates?profile=xyz", "", http.StatusBadRequest},
		{"missing threshold profile", "GET", "/v1/threshold", "", http.StatusBadRequest},
		{"bad json", "POST", "/v1/insert", "{", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/insert", `{"rows":[]}`, http.StatusBadRequest},
		{"empty batch", "POST", "/v1/insert", `{"profiles":[]}`, http.StatusBadRequest},
		{"method mismatch", "GET", "/v1/insert", "", http.StatusMethodNotAllowed},
		{"insert on candidates", "POST", "/v1/candidates?profile=1", "{}", http.StatusMethodNotAllowed},
		{"unknown route", "GET", "/v1/nope", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Oversized body: 413.
	big := insertBody(func() []model.Profile {
		rng := stats.NewRNG(3)
		out := make([]model.Profile, 64)
		for i := range out {
			out[i] = testProfile(rng, fmt.Sprintf("big%d", i))
		}
		return out
	}()...)
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/insert", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// gateCommits holds the handler's committer before every flush until
// the returned channel is closed, so a queue can fill deterministically.
func gateCommits(h *Handler) chan struct{} {
	gate := make(chan struct{})
	h.bat.mu.Lock()
	h.bat.gate = gate
	h.bat.mu.Unlock()
	return gate
}

// waitInFlight polls until the handler has exactly n insert requests in
// flight (queued or committing).
func waitInFlight(t *testing.T, h *Handler, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for h.Stats().PendingRequests != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want %d", h.Stats().PendingRequests, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescing fires many concurrent single-profile inserts while a
// commit is held in flight and checks group commit: everything that
// queued behind it is admitted as one InsertAll batch, with every id
// assigned exactly once.
func TestCoalescing(t *testing.T) {
	srv := newTestServer(t, 2)
	h := NewHandler(srv, Options{})
	defer h.Close()
	gate := gateCommits(h)
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()

	const n = 60
	ids := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(i) + 100)
			resp, body := postJSON(t, client, ts.URL+"/v1/insert", insertBody(testProfile(rng, fmt.Sprintf("c%d", i))))
			if resp.StatusCode != http.StatusOK {
				t.Errorf("insert %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			var ins InsertResponse
			if err := json.Unmarshal(body, &ins); err != nil || len(ins.IDs) != 1 {
				t.Errorf("insert %d: bad response %s", i, body)
				return
			}
			ids <- ins.IDs[0]
		}(i)
	}
	waitInFlight(t, h, n)
	close(gate)
	wg.Wait()
	close(ids)
	seen := make(map[int]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("id %d assigned twice", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("%d ids assigned, want %d", len(seen), n)
	}
	for id := range seen {
		if id < 40 || id >= 40+n {
			t.Fatalf("id %d outside the admitted range [40, %d)", id, 40+n)
		}
	}
	st := h.Stats()
	if st.AdmittedProfiles != n {
		t.Errorf("admitted %d profiles, want %d", st.AdmittedProfiles, n)
	}
	if st.Batches != 1 || st.CoalescedRequests != n {
		t.Errorf("%d requests queued behind one commit made %d batches (%d coalesced), want 1 (%d)",
			n, st.Batches, st.CoalescedRequests, n)
	}
}

// TestBackpressure saturates a handler with tiny in-flight bounds and a
// held committer: the overflow must be shed as 429 with a Retry-After
// header while the in-flight level stays within the bounds, and the
// server must stay healthy throughout.
func TestBackpressure(t *testing.T) {
	srv := newTestServer(t, 1)
	opt := Options{
		MaxPendingRequests: 4,
		MaxPendingBytes:    1 << 20,
	}
	h := NewHandler(srv, opt)
	defer h.Close()
	gate := gateCommits(h)
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()

	const n = 64
	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(i) + 500)
			body := insertBody(testProfile(rng, fmt.Sprintf("bp%d", i)))
			resp, _ := postJSON(t, client, ts.URL+"/v1/insert", body)
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed.Add(1)
			default:
				t.Errorf("insert %d: unexpected status %d", i, resp.StatusCode)
			}
			// The in-flight level must never exceed the configured bounds.
			st := h.Stats()
			if st.PendingRequests > opt.MaxPendingRequests {
				t.Errorf("pending requests %d over bound %d", st.PendingRequests, opt.MaxPendingRequests)
			}
			if st.PendingBytes > opt.MaxPendingBytes {
				t.Errorf("pending bytes %d over bound %d", st.PendingBytes, opt.MaxPendingBytes)
			}
		}(i)
	}
	// The held commit fills the bound; everything beyond it is shed.
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() != n-int64(opt.MaxPendingRequests) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	waitInFlight(t, h, opt.MaxPendingRequests)
	close(gate)
	wg.Wait()
	if got, want := ok.Load(), int64(opt.MaxPendingRequests); got != want || shed.Load() != n-want {
		t.Errorf("%d admitted and %d shed, want %d and %d", got, shed.Load(), want, n-want)
	}
	if got := h.Stats().Rejected; got != shed.Load() {
		t.Errorf("stats.Rejected = %d, want %d", got, shed.Load())
	}
	// The server survived: health is green and the admitted profiles
	// are exactly the 200s.
	resp, _ := getBody(t, client, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d after saturation", resp.StatusCode)
	}
	if err := srv.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Admitted(), 40+int(ok.Load()); got != want {
		t.Errorf("admitted %d profiles, want %d", got, want)
	}
}

// TestCancellation: a request whose context dies while queued is never
// admitted.
func TestCancellation(t *testing.T) {
	srv := newTestServer(t, 1)
	h := NewHandler(srv, Options{})
	defer h.Close()
	gate := gateCommits(h)

	ctx, cancel := context.WithCancel(context.Background())
	rng := stats.NewRNG(9)
	submitted := make(chan error, 1)
	go func() {
		_, err := h.bat.submit(ctx, []model.Profile{testProfile(rng, "x")}, 64)
		submitted <- err
	}()
	waitInFlight(t, h, 1)
	cancel()
	if err := <-submitted; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled submit = %v, want context.Canceled", err)
	}
	// Release the committer: it must drop the request, not admit it.
	close(gate)
	waitInFlight(t, h, 0)
	if err := srv.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := srv.Admitted(); got != 40 {
		t.Errorf("canceled insert was admitted: %d profiles, want 40", got)
	}
	if h.Stats().Canceled == 0 {
		t.Error("cancellation not counted")
	}
}

// TestDrain: inserts racing a drain either commit fully or are refused;
// after Drain the handler serves reads but refuses writes, and every
// admitted profile is published.
func TestDrain(t *testing.T) {
	srv := newTestServer(t, 2)
	h := NewHandler(srv, Options{})
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()

	var wg sync.WaitGroup
	var ok atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(i) + 900)
			resp, _ := postJSON(t, client, ts.URL+"/v1/insert", insertBody(testProfile(rng, fmt.Sprintf("d%d", i))))
			if resp.StatusCode == http.StatusOK {
				ok.Add(1)
			} else if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("insert %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	if err := h.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()

	// Post-drain: writes refused, reads fine, everything published.
	rng := stats.NewRNG(1)
	resp, _ := postJSON(t, client, ts.URL+"/v1/insert", insertBody(testProfile(rng, "late")))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain insert: status %d, want 503", resp.StatusCode)
	}
	resp, _ = getBody(t, client, ts.URL+"/v1/candidates?profile=0")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-drain read: status %d", resp.StatusCode)
	}
	if got, want := srv.NumProfiles(), 40+int(ok.Load()); got != want {
		t.Errorf("published %d profiles after drain, want %d", got, want)
	}
	if got, want := srv.Admitted(), srv.NumProfiles(); got != want {
		t.Errorf("drain left %d admitted vs %d published", got, want)
	}
}

// TestGoroutineLeak: handler + server teardown releases every
// goroutine, including under churn.
func TestGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		srv := newTestServer(t, 2)
		h := NewHandler(srv, Options{})
		ts := httptest.NewServer(h)
		client := ts.Client()
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := stats.NewRNG(uint64(i) + 40)
				for k := 0; k < 4; k++ {
					postJSON(t, client, ts.URL+"/v1/insert", insertBody(testProfile(rng, fmt.Sprintf("g%d-%d", i, k))))
					getBody(t, client, fmt.Sprintf("%s/v1/candidates?profile=%d", ts.URL, rng.Intn(50)))
				}
			}(i)
		}
		wg.Wait()
		ts.Close()
		if err := h.Close(); err != nil {
			t.Errorf("handler close: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked: %d > %d", n, base)
	}
}

// TestStatszTopology: /statsz carries the per-shard residency counters
// of a partitioned server — the owned rows partition the profile space
// instead of replicating it — and the body names no topology, as there
// is only one.
func TestStatszTopology(t *testing.T) {
	t.Run("partitioned", func(t *testing.T) {
		srv := newTestServer(t, 2)
		h := NewHandler(srv, Options{})
		defer h.Close()
		ts := httptest.NewServer(h)
		defer ts.Close()
		resp, body := getBody(t, ts.Client(), ts.URL+"/statsz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("statsz status %d", resp.StatusCode)
		}
		var st StatszResponse
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("statsz body: %v", err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("statsz body: %v", err)
		}
		if _, ok := fields["topology"]; ok {
			t.Fatalf("statsz still names a topology: %s", body)
		}
		if st.Storage != blast.StorageMemory.String() {
			t.Fatalf("statsz storage %q, want %q", st.Storage, blast.StorageMemory)
		}
		if len(st.Shards) != 2 {
			t.Fatalf("statsz reports %d shards", len(st.Shards))
		}
		owned := 0
		for _, sh := range st.Shards {
			if sh.ResidentBytes <= 0 {
				t.Fatalf("shard %d reports %d resident bytes", sh.ID, sh.ResidentBytes)
			}
			owned += sh.OwnedRows
		}
		if owned != 40 {
			t.Fatalf("owned rows sum to %d, want 40", owned)
		}
	})
}

// TestStatszStorage: /statsz names the graph storage mode the server's
// builds run under (configuration, not residency — spilled builds are
// materialized at publish time).
func TestStatszStorage(t *testing.T) {
	opt := blast.DefaultOptions()
	opt.Storage = blast.StorageFile
	opt.MemoryBudget = 1
	p, err := blast.NewPipeline(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve(context.Background(), testDataset(stats.NewRNG(7), 40),
		blast.ServerOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := NewHandler(srv, Options{})
	defer h.Close()
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, body := getBody(t, ts.Client(), ts.URL+"/statsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statsz status %d", resp.StatusCode)
	}
	var st StatszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz body: %v", err)
	}
	if st.Storage != blast.StorageFile.String() {
		t.Fatalf("statsz storage %q, want %q", st.Storage, blast.StorageFile)
	}
}
