package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hiertopo"
)

// mapAnswer is everything a client sees of a /v1/map response.
type mapAnswer struct {
	status     int
	body       string
	key, ctype string
	retryAfter string
}

func serveMap(h http.Handler, body []byte) mapAnswer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/map", bytes.NewReader(body)))
	return mapAnswer{
		status:     rec.Code,
		body:       rec.Body.String(),
		key:        rec.Header().Get("X-Topomapd-Key"),
		ctype:      rec.Header().Get("Content-Type"),
		retryAfter: rec.Header().Get("Retry-After"),
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// spelledBodies are /v1/map bodies covering every request feature the
// name pass reads, and spellings that differ from each other while
// naming the same job.
func spelledBodies(t *testing.T) map[string][]byte {
	jobs := testJobs()
	structural := Job{Graph: GraphSpec{Pattern: "mesh2d:3,4", MsgBytes: 1e5, Seed: 1},
		Hierarchy: &hiertopo.Spec{
			Levels: []hiertopo.LevelSpec{{Name: "pod", Count: 2}, {Name: "rack", Count: 2}, {Name: "node", Count: 4}},
			Leaf:   "mesh-2x2",
		},
		Strategy: "hier", Seed: 1,
		Constraints: []Constraint{{Level: "rack", Kind: "required"}, {Level: "pod", Kind: "preferred"}}}
	return map[string][]byte{
		"pattern":            mustMarshal(t, jobs[0]),
		"pattern metrics":    mustMarshal(t, jobs[1]),
		"partitioned refine": mustMarshal(t, jobs[7]),
		"sim packet":         mustMarshal(t, jobs[4]),
		"sim wormhole":       mustMarshal(t, jobs[5]),
		"inline":             mustMarshal(t, inlineJob(inlineSquare)),
		"inline reordered":   mustMarshal(t, inlineJob(inlineSquareAlt)),
		"hier constraints":   mustMarshal(t, hierJob()),
		"hierarchy":          mustMarshal(t, structural),
		"auto derived":       mustMarshal(t, autoJob()),
		"auto budget":        mustMarshal(t, Job{Graph: GraphSpec{Pattern: "stencil9:8,8"}, Topology: "torus:4,4", Strategy: "auto", AutoBudgetMS: 500}),
		"cased": []byte(`{"graph":{"pattern":"MESH2D:8,8","msg_bytes":1e5,"seed":1},` +
			`"topology":" Torus:8,8 ","strategy":"TopoLB","seed":1}`),
		"spaced": []byte("\n\t{ \"seed\" : 1, \"strategy\" : \"topolb\", \"topology\" : \"torus:8,8\",\n" +
			"  \"graph\" : { \"seed\" : 1, \"msg_bytes\" : 100000, \"pattern\" : \"mesh2d:8,8\" } }\n"),
		"unknown strategy": []byte(`{"graph":{"pattern":"mesh2d:8,8"},"topology":"torus:8,8","strategy":"psychic"}`),
		"unknown field":    []byte(`{"graph":{"pattern":"mesh2d:8,8"},"topology":"torus:8,8","colour":"red"}`),
		"bad pattern":      []byte(`{"graph":{"pattern":"ring:2"},"topology":"torus:2"}`),
		"too few tasks":    []byte(`{"graph":{"pattern":"mesh2d:2,2"},"topology":"torus:4,4","strategy":"topolb"}`),
		"not json":         []byte(`not json`),
	}
}

// sameKey lists the bodies above that name the same job as each other:
// different spellings of one content key.
var sameKey = [][2]string{
	{"pattern", "cased"},
	{"pattern", "spaced"},
	{"inline", "inline reordered"},
	{"hier constraints", "hierarchy"},
}

// TestSpelledHitMatchesNamePath: a body sent twice gets the same answer
// both times — the second from its indexed spelling when the first was a
// 200 — and the same answer a fresh server gives it.
func TestSpelledHitMatchesNamePath(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	h := srv.Handler()
	bodies := spelledBodies(t)
	for label, body := range bodies {
		t.Run(label, func(t *testing.T) {
			before := srv.Snapshot().ResultCache
			first := serveMap(h, body)
			second := serveMap(h, body)
			after := srv.Snapshot().ResultCache
			fresh := NewServer(Config{})
			defer fresh.Close()
			want := serveMap(fresh.Handler(), body)
			if first != want || second != want {
				t.Fatalf("answers differ:\nfresh  %+v\nfirst  %+v\nsecond %+v", want, first, second)
			}
			wantSpelled := int64(0)
			if want.status == 200 {
				wantSpelled = 1
			}
			if got := after.SpelledHits - before.SpelledHits; got != wantSpelled {
				t.Errorf("status %d: spelled_hits +%d, want +%d", want.status, got, wantSpelled)
			}
		})
	}
	for _, pair := range sameKey {
		a, b := serveMap(h, bodies[pair[0]]), serveMap(h, bodies[pair[1]])
		if a.status != 200 || a != b {
			t.Errorf("%s and %s should name one job:\n%+v\n%+v", pair[0], pair[1], a, b)
		}
	}
}

// TestSpellingIsTheLatest: an entry holds one spelling, the last one
// that named it. Two spellings of one job alternate between the name path
// and the index, and neither is computed twice.
func TestSpellingIsTheLatest(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	h := srv.Handler()
	bodies := spelledBodies(t)
	a, b := bodies["pattern"], bodies["spaced"]
	want := serveMap(h, a) // computed; a indexed
	for i, body := range [][]byte{a, b, b, a} {
		if got := serveMap(h, body); got != want {
			t.Fatalf("request %d: %+v, want %+v", i, got, want)
		}
	}
	// a: index; b: name path, b replaces a; b: index; a: name path.
	st := srv.Snapshot()
	if c := st.ResultCache; c.SpelledHits != 2 || c.Spellings != 1 || c.Hits != 4 || c.Misses != 1 || st.JobsComputed != 1 {
		t.Errorf("result_cache %+v, jobs_computed %d; want 2 spelled of 4 hits, 1 miss, 1 spelling, 1 computation", c, st.JobsComputed)
	}
}

// TestSpellingLeavesWithItsEntry: once an entry is evicted its spelling
// no longer answers; the body goes back to the name path and is
// recomputed, and indexed again.
func TestSpellingLeavesWithItsEntry(t *testing.T) {
	srv := NewServer(Config{CacheEntries: 1})
	defer srv.Close()
	h := srv.Handler()
	a := []byte(`{"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4","seed":1}`)
	b := []byte(`{"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4","seed":2}`)
	want := serveMap(h, a)
	if got := serveMap(h, a); got != want || want.status != 200 {
		t.Fatalf("repeat: %+v, want %+v", got, want)
	}
	serveMap(h, b) // evicts a's entry and its spelling
	if c := srv.Snapshot().ResultCache; c.Spellings != 1 || c.Evictions != 1 {
		t.Fatalf("after eviction: %+v, want 1 spelling, 1 eviction", c)
	}
	if got := serveMap(h, a); got != want {
		t.Fatalf("after eviction: %+v, want %+v", got, want)
	}
	st := srv.Snapshot()
	if st.JobsComputed != 3 || st.ResultCache.SpelledHits != 1 {
		t.Errorf("jobs_computed %d, spelled_hits %d; want a recomputed (3) and one spelled hit",
			st.JobsComputed, st.ResultCache.SpelledHits)
	}
	if got := serveMap(h, a); got != want || srv.Snapshot().ResultCache.SpelledHits != 2 {
		t.Errorf("recomputed body was not indexed again")
	}
}

// TestDisabledCacheIndexesNothing: with CacheEntries < 0 there is no
// entry to spell, so every request is named and computed.
func TestDisabledCacheIndexesNothing(t *testing.T) {
	srv := NewServer(Config{CacheEntries: -1})
	defer srv.Close()
	h := srv.Handler()
	body := mustMarshal(t, testJobs()[0])
	want := serveMap(h, body)
	if got := serveMap(h, body); got != want || want.status != 200 {
		t.Fatalf("%+v, want %+v", got, want)
	}
	st := srv.Snapshot()
	if c := st.ResultCache; c.Spellings != 0 || c.SpelledHits != 0 || st.JobsComputed != 2 {
		t.Errorf("result_cache %+v, jobs_computed %d; want nothing indexed and 2 computations", c, st.JobsComputed)
	}
}

// TestFailuresAreNotIndexed: a 400, 413, 429 or timed-out request is
// never indexed. The same bad body sent twice fails twice, and counts
// twice in client_errors.
func TestFailuresAreNotIndexed(t *testing.T) {
	srv := NewServer(Config{MaxBody: 512, MaxTasks: 100, QueueDepth: 2, RequestTimeout: 20 * time.Millisecond, noWorkers: true})
	defer srv.Close()
	h := srv.Handler()
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"decode", `{"graph":`, 400},
		{"name", `{"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4","strategy":"psychic"}`, 400},
		{"build", `{"graph":{"pattern":"ring:2"},"topology":"torus:2"}`, 400},
		{"tasks", `{"graph":{"pattern":"mesh2d:16,16"},"topology":"torus:16,16"}`, 413},
		{"body", `{"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4","strategy":"topolb` + strings.Repeat(" ", 600) + `"}`, 413},
		// No worker drains the queue: each attempt at the first job waits
		// out the request timeout, and its abandoned flight keeps its
		// admission slot; with both slots held, the next job is refused.
		{"timeout", `{"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4","seed":1}`, 499},
		{"queue full", `{"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4","seed":2}`, 429},
	}
	for _, tc := range cases {
		before := srv.Snapshot()
		first := serveMap(h, []byte(tc.body))
		second := serveMap(h, []byte(tc.body))
		after := srv.Snapshot()
		if first.status != tc.status || first != second {
			t.Errorf("%s: %+v then %+v, want status %d twice", tc.name, first, second, tc.status)
		}
		if got := after.ClientErrors - before.ClientErrors; got != 2 {
			t.Errorf("%s: client_errors +%d, want +2", tc.name, got)
		}
		if c := after.ResultCache; c.Spellings != 0 || c.SpelledHits != 0 {
			t.Errorf("%s: result_cache %+v, want nothing indexed", tc.name, c)
		}
	}
}

// checkSpellings holds the index to the cache under its lock: every
// indexed digest names a live entry that holds it as its one spelling,
// and there are no more spellings than entries.
func checkSpellings(c *resultCache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.spelled) > len(c.entries) {
		return fmt.Errorf("%d spellings for %d entries", len(c.spelled), len(c.entries))
	}
	for d, e := range c.spelled {
		if c.entries[e.key] != e {
			return fmt.Errorf("spelling %x points at evicted entry %s", d[:4], e.key)
		}
		if e.spelling != d {
			return fmt.Errorf("entry %s does not hold spelling %x", e.key, d[:4])
		}
	}
	return nil
}

// TestSpellingsUnderEviction races requests for more jobs than the cache
// holds, each in two spellings, against a checker of the index.
func TestSpellingsUnderEviction(t *testing.T) {
	srv := NewServer(Config{CacheEntries: 4})
	defer srv.Close()
	h := srv.Handler()
	var bodies [][]byte
	for seed := 1; seed <= 12; seed++ {
		job := `"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4","strategy":"sfc","seed":` + strconv.Itoa(seed)
		bodies = append(bodies, []byte(`{`+job+`}`), []byte(` {`+job+`}`))
	}
	want := make([]mapAnswer, len(bodies))
	ref := NewServer(Config{})
	for i, body := range bodies {
		want[i] = serveMap(ref.Handler(), body)
	}
	ref.Close()

	stop := make(chan struct{})
	checked := make(chan error, 1)
	go func() {
		for {
			if err := checkSpellings(srv.cache); err != nil {
				checked <- err
				return
			}
			select {
			case <-stop:
				checked <- nil
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				k := (i*7 + c*5) % len(bodies)
				if got := serveMap(h, bodies[k]); got != want[k] {
					t.Errorf("body %d: %+v, want %+v", k, got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	if err := checkSpellings(srv.cache); err != nil {
		t.Fatal(err)
	}
	if c := srv.Snapshot().ResultCache; c.Evictions == 0 || c.SpelledHits == 0 {
		t.Errorf("result_cache %+v: the run should both evict and answer from spellings", c)
	}
}

// TestStatsSpelledFields: /stats reports the index; /v1/map bodies do
// not mention it.
func TestStatsSpelledFields(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	h := srv.Handler()
	body := mustMarshal(t, testJobs()[1])
	answer := serveMap(h, body)
	serveMap(h, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var stats struct {
		ResultCache map[string]int64 `json:"result_cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.ResultCache; got["spelled_hits"] != 1 || got["spellings"] != 1 || got["hits"] != 1 {
		t.Errorf("/stats result_cache = %v, want 1 hit, 1 spelled hit, 1 spelling", got)
	}
	if strings.Contains(answer.body, "spell") {
		t.Errorf("a /v1/map body mentions the index: %s", answer.body)
	}
}

// FuzzSpelledHit: whatever the bytes, a body sent twice gets the same
// status, body, key and content type both times and from a fresh server,
// and only a 200 is answered from its spelling.
func FuzzSpelledHit(f *testing.F) {
	fuzzSeeds(f)
	f.Add([]byte(`{"graph":{"pattern":"MESH2D:4,4"},"topology":" torus:4,4","strategy":"TopoLB"}`))
	f.Add([]byte(` {"graph":{"pattern":"mesh2d:4,4"},"topology":"torus:4,4"} `))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Job
		if decodeStrict(data, &spec) == nil {
			if fuzzTooBig(&spec) {
				return
			}
			if j, err := name(spec, fuzzMaxTasks); err == nil && j.build() == nil && fuzzTooSlow(j) {
				return
			}
		}
		srv := NewServer(Config{MaxTasks: fuzzMaxTasks})
		defer srv.Close()
		first := serveMap(srv.Handler(), data)
		second := serveMap(srv.Handler(), data)
		fresh := NewServer(Config{MaxTasks: fuzzMaxTasks})
		defer fresh.Close()
		want := serveMap(fresh.Handler(), data)
		if first != want || second != want {
			t.Fatalf("answers differ:\nfresh  %+v\nfirst  %+v\nsecond %+v", want, first, second)
		}
		if spelled := srv.Snapshot().ResultCache.SpelledHits; (spelled == 1) != (want.status == 200) {
			t.Fatalf("status %d answered %d times from its spelling", want.status, spelled)
		}
	})
}

// hitWriter is a ResponseWriter that keeps only the status and header
// and, like a connection's writer, accepts a write deadline: what an
// allocation count through it sees is the handler's own.
type hitWriter struct {
	header http.Header
	status int
}

func (w *hitWriter) Header() http.Header              { return w.header }
func (w *hitWriter) WriteHeader(status int)           { w.status = status }
func (w *hitWriter) SetWriteDeadline(time.Time) error { return nil }
func (w *hitWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = 200
	}
	return len(p), nil
}

// replayBody is a request body that can be read again after Reset.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// mapHitter serves one /v1/map body again and again through Handler(),
// reusing the request and writer so that only the server allocates.
type mapHitter struct {
	h   http.Handler
	w   hitWriter
	r   *http.Request
	rb  replayBody
	err error
}

func newMapHitter(h http.Handler) *mapHitter {
	m := &mapHitter{h: h, w: hitWriter{header: http.Header{}}}
	m.r = httptest.NewRequest("POST", "/v1/map", nil)
	m.r.Body = &m.rb
	return m
}

func (m *mapHitter) serve(body []byte) bool {
	m.rb.Reset(body)
	clear(m.w.header)
	m.w.status = 0
	m.h.ServeHTTP(&m.w, m.r)
	if m.w.status != 200 {
		m.err = errors.New("status " + strconv.Itoa(m.w.status))
		return false
	}
	return true
}

// spelledHitAllocs is what answering a /v1/map request from its indexed
// spelling allocates through Handler() (measured: 3): the body reader's
// limit and the two response header values, whatever the request. The
// name path allocates 9 for a pattern job and 19 for the 22 KB inline
// job before it even looks the key up (TestHitAllocationsFlat, Inline).
const spelledHitAllocs = 3

// TestSpelledHitAllocations pins the indexed hit's cost: the same small
// count for a pattern job as for the benchmark's 22 KB inline job.
func TestSpelledHitAllocations(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	hit := func(spec Job) float64 {
		body := mustMarshal(t, spec)
		m := newMapHitter(srv.Handler())
		if !m.serve(body) || !m.serve(body) {
			t.Fatal(m.err)
		}
		spelled := srv.Snapshot().ResultCache.SpelledHits
		allocs := testing.AllocsPerRun(200, func() {
			if !m.serve(body) {
				t.Fatal(m.err)
			}
		})
		if srv.Snapshot().ResultCache.SpelledHits == spelled {
			t.Fatal("the repeats were not answered from the index")
		}
		return allocs
	}
	pattern := hit(Job{Graph: GraphSpec{Pattern: "stencil9:16,16"}, Topology: "torus:4,4"})
	inline := hit(benchInlineJob(t))
	ceiling := float64(spelledHitAllocs)
	if raceEnabled {
		ceiling += 4 // sync.Pool drops items under -race
	} else if pattern != inline {
		t.Errorf("spelled hit allocations differ: %v for a pattern job, %v for the 22 KB inline job", pattern, inline)
	}
	if pattern > ceiling || inline > ceiling {
		t.Errorf("spelled hit allocates %v (pattern) and %v (inline) objects, ceiling %v", pattern, inline, ceiling)
	}
}

// BenchmarkMapHit times a cached /v1/map request through Handler(), for
// a pattern job and the benchmark's 22 KB inline job: "repeat" sends one
// spelling, answered from the index; "first" alternates two spellings of
// the job, so each request is a spelling its entry does not hold and goes
// decode → name → cache.
func BenchmarkMapHit(b *testing.B) {
	jobs := []struct {
		name string
		spec Job
	}{
		{"pattern", Job{Graph: GraphSpec{Pattern: "stencil9:64,64"}, Topology: "torus:16,16"}},
		{"inline", benchInlineJob(b)},
	}
	for _, job := range jobs {
		srv := NewServer(Config{})
		body := mustMarshal(b, job.spec)
		spellings := [][]byte{body, append([]byte{' '}, body...)}
		m := newMapHitter(srv.Handler())
		if !m.serve(body) {
			b.Fatal(m.err)
		}
		b.Run(job.name+"/repeat", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if !m.serve(body) {
					b.Fatal(m.err)
				}
			}
		})
		b.Run(job.name+"/first", func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				if !m.serve(spellings[(i+1)%2]) {
					b.Fatal(m.err)
				}
			}
		})
		srv.Close()
	}
}

// TestSlowReaderIsCut: a client that stops reading a response larger
// than the socket buffers has its connection closed once the write
// deadline passes, and nothing of the request is left running after
// Close. A watch long-poll on a connection that served an earlier
// request outlives the deadline and still gets its event.
func TestSlowReaderIsCut(t *testing.T) {
	defer func(d time.Duration) { writeDeadline = d }(writeDeadline)
	writeDeadline = 100 * time.Millisecond
	goroutines := runtime.NumGoroutine()
	srv := NewServer(Config{WatchTimeout: 300 * time.Millisecond})
	ts := httptest.NewUnstartedServer(srv.Handler())
	// Remote addresses of the connections the server closed. The test
	// opens at most three; a report past the buffer is dropped, not blocked on.
	closed := make(chan string, 16)
	ts.Config.ConnState = func(c net.Conn, state http.ConnState) {
		if state == http.StateClosed {
			select {
			case closed <- c.RemoteAddr().String():
			default:
			}
		}
	}
	ts.Start()

	job := `{"graph":{"pattern":"mesh2d:128,128"},"topology":"torus:16,16","strategy":"sfc"}`
	status, one, _ := post(t, ts, "/v1/map", job)
	wantStatus(t, status, 200, one)
	const copies = 128 // one response of copies × len(one) bytes: several MB
	payload := `{"jobs":[` + strings.TrimSuffix(strings.Repeat(job+",", copies), ",") + `]}`

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v1/batch HTTP/1.1\r\nHost: topomapd\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(payload), payload)
	timeout := time.After(10 * time.Second)
	for cut := false; !cut; {
		select {
		case addr := <-closed:
			cut = addr == conn.LocalAddr().String()
		case <-timeout:
			t.Fatalf("the stalled response was never cut (write_failures %d)", srv.Snapshot().WriteFailures)
		}
	}
	if wf := srv.Snapshot().WriteFailures; wf != 1 {
		t.Errorf("write_failures = %d, want 1", wf)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}

	// The client's connection is kept alive between these two requests,
	// so the watch inherits the create's deadline, long past by its end.
	_, created := doJSON(t, ts, "POST", "/v1/sessions", newSessionSpec(""))
	status, ev := doJSON(t, ts, "GET", "/v1/sessions/"+created["id"].(string)+"/watch?version=1", "")
	wantStatus(t, status, 200, nil)
	if ev["event"] != "timeout" {
		t.Errorf("watch event %v, want timeout", ev)
	}

	// A response the mux writes itself (404) on that connection, once the
	// watch's deadline is past, is written under a fresh one.
	time.Sleep(2 * writeDeadline)
	resp, err := ts.Client().Get(ts.URL + "/v1/nowhere")
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil || resp.StatusCode != 404 {
		t.Errorf("unknown path: status %d (close: %v), want 404", resp.StatusCode, err)
	}

	ts.Close()
	srv.Close()
	awaitGoroutines(t, goroutines)
}
