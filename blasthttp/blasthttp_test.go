package blasthttp

// Tests of the HTTP serving surface: endpoint semantics and error
// codes, the HTTP-vs-in-process byte differential, graceful drain, and
// goroutine-leak checks — the network-facing half of the serving-tier
// contract. The write queue behind /v1/insert (group commit,
// backpressure, cancellation) is tested at the Server, in
// admission_test.go of package blast.

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
	"blast/internal/shard"
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
	one := string(insertBody(testProfile(stats.NewRNG(11), "t0")))

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
		// A body is one object: nothing after it is dropped unread.
		{"two objects", "POST", "/v1/insert", one + one, http.StatusBadRequest},
		{"trailing garbage", "POST", "/v1/insert", one + " garbage", http.StatusBadRequest},
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
	if got := srv.Admitted(); got != 40 {
		t.Errorf("rejected requests admitted profiles: Admitted %d, want 40", got)
	}
	if resp, out := postJSON(t, client, ts.URL+"/v1/insert", []byte(one+"\n")); resp.StatusCode != http.StatusOK {
		t.Errorf("trailing newline: status %d (%s), want 200", resp.StatusCode, out)
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

// TestErrorStatus holds the one error-to-status mapping every handler
// shares, the 429's Retry-After hint included.
func TestErrorStatus(t *testing.T) {
	h := NewHandler(nil, Options{})
	cases := []struct {
		err        error
		status     int
		retryAfter string
	}{
		{blast.ErrOverloaded, http.StatusTooManyRequests, "1"},
		{fmt.Errorf("admit: %w", blast.ErrOverloaded), http.StatusTooManyRequests, "1"},
		{&http.MaxBytesError{Limit: 512}, http.StatusRequestEntityTooLarge, ""},
		{context.Canceled, http.StatusRequestTimeout, ""},
		{fmt.Errorf("barrier: %w", context.DeadlineExceeded), http.StatusRequestTimeout, ""},
		{shard.ErrClosed, http.StatusServiceUnavailable, ""},
		{errors.New("shard wedged"), http.StatusInternalServerError, ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		h.fail(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%v: Retry-After %q, want %q", tc.err, got, tc.retryAfter)
		}
		var body errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error != tc.err.Error() {
			t.Errorf("%v: error body %q (%v)", tc.err, rec.Body.Bytes(), err)
		}
	}
}

// TestDrain: inserts racing Server.Close either commit fully or are
// refused with 503; after Close the handler serves reads but refuses
// writes, and every admitted profile is published.
func TestDrain(t *testing.T) {
	srv := newTestServer(t, 2)
	h := NewHandler(srv, Options{})
	ts := httptest.NewServer(h)
	defer ts.Close()
	client := ts.Client()

	var wg sync.WaitGroup
	var ok atomic.Int64
	started := make(chan struct{}, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(i) + 900)
			started <- struct{}{}
			resp, _ := postJSON(t, client, ts.URL+"/v1/insert", insertBody(testProfile(rng, fmt.Sprintf("d%d", i))))
			if resp.StatusCode == http.StatusOK {
				ok.Add(1)
			} else if resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("insert %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-started
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	// After Close: writes refused, reads fine, everything published.
	rng := stats.NewRNG(1)
	resp, _ := postJSON(t, client, ts.URL+"/v1/insert", insertBody(testProfile(rng, "late")))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("insert after Close: status %d, want 503", resp.StatusCode)
	}
	resp, _ = getBody(t, client, ts.URL+"/v1/candidates?profile=0")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("read after Close: status %d", resp.StatusCode)
	}
	if got, want := srv.NumProfiles(), 40+int(ok.Load()); got != want {
		t.Errorf("published %d profiles after Close, want %d", got, want)
	}
	if got, want := srv.Admitted(), srv.NumProfiles(); got != want {
		t.Errorf("Close left %d admitted vs %d published", got, want)
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
