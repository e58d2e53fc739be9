package main

// http-mixed: the same served base behind blasthttp on a loopback
// socket. The path under test is request decode, the batcher queue and
// its 500 µs coalescing window, commit, and JSON encode; the in-process
// lookup is under 3 % of a round trip, so a Candidates optimisation
// must show on serve-stream and not here, an encoder or handler
// optimisation the reverse. Closed loop: callers are matchers that wait
// for their candidates. One writer connection, one reader connection.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"
)

// site is one fresh server behind a listening handler.
type site struct {
	srv     *Server
	h       *Handler
	hs      *http.Server
	served  chan error
	url     string
	dir     string
	clients []*http.Client
}

// client returns a keep-alive client that holds one connection.
func (s *site) client() *http.Client {
	c := &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
	s.clients = append(s.clients, c)
	return c
}

// close tears the site down in blastserve's order and waits for the
// accept loop to end.
func (s *site) close(b *bench) {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	b.must(s.hs.Close(), "http.Server.Close")
	<-s.served
	b.must(s.h.Close(), "Handler.Close")
	b.must(s.srv.Close(), "Server.Close")
	b.must(os.RemoveAll(s.dir), "remove server dir")
}

// fetch performs one request and returns the status and body.
func fetch(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func candidatesURL(base string, profile int) string {
	return fmt.Sprintf("%s/v1/candidates?profile=%d", base, profile)
}

func runHTTPMixed(ctx context.Context, b *bench) {
	sc := b.serveScale(4)
	p, err := newPipeline()
	b.fatal(err, "NewPipeline")

	var c corpus
	var setups []float64
	fresh := func(rep int) (*site, int) {
		quiet()
		s := &site{served: make(chan error, 1)}
		// The traced run leaves its first repetition untraced: the
		// figure trace_overhead divides by.
		root := noSpan
		if rep != 1 {
			root = b.tr.start(0, "stream", rep)
		}
		setups = append(setups, timed(func() {
			c = b.prepare(ctx, p, sc, root)
			s.dir = b.scratch("http")
			b.tr.in(root, "server.cold_serve", rep, func() { s.srv, err = serve(ctx, p, c.blocks, s.dir, false) })
			b.fatal(err, "ServeBlocks")
			s.h = newHandler(s.srv)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			b.fatal(err, "listen on loopback")
			s.hs = &http.Server{Handler: s.h}
			go func() { s.served <- s.hs.Serve(ln) }()
			s.url = "http://" + ln.Addr().String()
		}))
		return s, root
	}

	// stream sends the POSTs from this goroutine while a reader
	// connection keeps reading, and ends with POST /v1/quiesce.
	type result struct {
		wall               float64
		insertMS, lookupUS []float64
		readFails          int
	}
	stream := func(s *site, profiles []Profile, root, rep int) result {
		var r result
		bodies := make([][]byte, 0, len(profiles)/sc.batch+1)
		for off := 0; off < len(profiles); off += sc.batch {
			body, err := insertBody(profiles[off:min(off+sc.batch, len(profiles))])
			b.fatal(err, "encode insert request")
			bodies = append(bodies, body)
		}
		order := permutation(sc.base, b.seed)
		writer, reader := s.client(), s.client()
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				t0 := time.Now()
				status, _, err := fetch(reader, http.MethodGet, candidatesURL(s.url, order[i%len(order)]), nil)
				r.lookupUS = append(r.lookupUS, float64(time.Since(t0).Nanoseconds())/1e3)
				if err != nil || status != http.StatusOK {
					r.readFails++
				}
			}
		}()
		t0 := time.Now()
		for _, body := range bodies {
			tb := time.Now()
			id := b.tr.start(root, "blasthttp.insert", rep)
			status, _, err := fetch(writer, http.MethodPost, s.url+"/v1/insert", body)
			b.tr.end(id)
			r.insertMS = append(r.insertMS, time.Since(tb).Seconds()*1e3)
			b.ok(err == nil && status == http.StatusOK, "POST /v1/insert: %d, %v", status, err)
		}
		b.tr.in(root, "blasthttp.quiesce", rep, func() {
			status, _, err := fetch(writer, http.MethodPost, s.url+"/v1/quiesce", nil)
			b.ok(err == nil && status == http.StatusOK, "POST /v1/quiesce: %d, %v", status, err)
		})
		r.wall = time.Since(t0).Seconds()
		close(done)
		wg.Wait()
		b.attempted += len(r.lookupUS)
		b.failed += r.readFails
		return r
	}

	if sc.warm > 0 {
		s, root := fresh(0)
		stream(s, c.stream[:sc.warm], root, 0)
		b.tr.end(root)
		s.close(b)
	}
	reps := b.streamReps(7) // round trips on two busy cores scatter more than in-process streams
	var s *site
	var walls, insertMS, mixedUS, lookupUS []float64
	total := sc.base + sc.streamed
	order := permutation(total, b.seed)
	for rep := 1; rep <= reps; rep++ {
		if s != nil {
			s.close(b)
		}
		var root int
		s, root = fresh(rep)
		r := stream(s, c.stream, root, rep)
		b.tr.end(root)
		walls = append(walls, r.wall)
		insertMS, mixedUS = append(insertMS, r.insertMS...), append(mixedUS, r.lookupUS...)
		// Read-only phase on the quiesced server: one connection.
		reader := s.client()
		b.readWindows(func(i int) {
			t0 := time.Now()
			status, _, err := fetch(reader, http.MethodGet, candidatesURL(s.url, order[i%total]), nil)
			lookupUS = append(lookupUS, float64(time.Since(t0).Nanoseconds())/1e3)
			b.ok(err == nil && status == http.StatusOK, "GET /v1/candidates: %d, %v", status, err)
		})
	}
	defer func() { s.close(b) }()
	b.rec("setup_s", setups...)
	b.rec("work_s", walls...)
	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = float64(sc.streamed) / w
	}
	b.rec("insert_profiles_per_s", rates...)
	b.rec("insert_p50_ms", insertMS...)

	b.rec("lookups_per_s", b.rates...)
	b.rec("lookup_p50_us", lookupUS...)
	reader := s.client()

	// Responses are compared byte for byte with the in-process encoders.
	for _, id := range order[:min(256, total)] {
		_, got, err := fetch(reader, http.MethodGet, candidatesURL(s.url, id), nil)
		want, werr := candidatesBody(ctx, s.srv, id)
		b.ok(err == nil && werr == nil && bytes.Equal(got, want), "candidates body of profile %d differs from CandidatesBody", id)
	}
	var body []byte
	pairsS := timed(func() { _, body, err = fetch(reader, http.MethodGet, s.url+"/v1/pairs", nil) })
	b.fatal(err, "GET /v1/pairs")
	wantBody, err := pairsBody(ctx, s.srv)
	b.fatal(err, "PairsBody")
	b.ok(bytes.Equal(body, wantBody), "pairs body differs from PairsBody")
	pairs, err := decodePairs(body)
	b.fatal(err, "decode /v1/pairs")
	q := evaluatePairs(pairs, c.truth)
	b.rec("pc", q.PC)
	b.rec("pq", q.PQ)
	b.rec("prune.retained_pairs", float64(len(pairs)))

	if b.traced {
		b.rec("trace_overhead", median(walls[1:])/walls[0])
		b.recSpans("server.cold_serve_s", "server.cold_serve")
		b.recSpans("blasthttp.quiesce_s", "blasthttp.quiesce")
		b.rec("blasthttp.lookup_p99_us", percentile(lookupUS, 0.99))
		b.rec("blasthttp.mixed_lookup_p50_us", mixedUS...)
		b.rec("blasthttp.insert_p99_ms", percentile(insertMS, 0.99))
		b.rec("blasthttp.pairs_s", pairsS)
		b.rec("blasthttp.pairs_mb", float64(len(body))/1e6)
		st := s.h.Stats()
		b.rec("blasthttp.batches", float64(st.Batches))
		b.rec("blasthttp.profiles_per_batch", float64(st.AdmittedProfiles)/float64(st.Batches))
		b.rec("blasthttp.coalesced_requests", float64(st.CoalescedRequests))
		b.rec("blasthttp.rejected_429", float64(st.Rejected))

		// The handler without a socket, and the encoder without a handler.
		const probes = 2000
		root := b.tr.start(0, "probes", 1)
		b.tr.in(root, "blasthttp.handler_lookup", 1, func() {
			for i := 0; i < probes; i++ {
				rec := httptest.NewRecorder()
				s.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, candidatesURL("", order[i%total]), nil))
				b.ok(rec.Code == http.StatusOK, "ServeHTTP: %d", rec.Code)
			}
		})
		b.tr.in(root, "blasthttp.encode_lookup", 1, func() {
			for i := 0; i < probes; i++ {
				_, err := candidatesBody(ctx, s.srv, order[i%total])
				b.must(err, "CandidatesBody")
			}
		})
		b.tr.end(root)
		b.rec("blasthttp.handler_lookup_us", median(b.tr.durations("blasthttp.handler_lookup"))*1e6/probes)
		b.rec("blasthttp.encode_lookup_us", median(b.tr.durations("blasthttp.encode_lookup"))*1e6/probes)
	}

	// Only the quiesced server behind its handler stays reachable.
	c, pairs, body, wantBody, order = corpus{}, nil, nil, nil, nil
	b.rec("resident_mb", liveHeapMB())
	runtime.KeepAlive(s)
}
