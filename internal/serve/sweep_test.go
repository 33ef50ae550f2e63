package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

// parseNDJSON splits a /v1/sweep body into cell rows and the terminal
// summary line.
func parseNDJSON(t *testing.T, body string) ([]sweep.Row, sweep.Summary) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) == 0 {
		t.Fatal("empty sweep body")
	}
	var sum sweep.Summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Done {
		t.Fatalf("last line is not a summary: %q (%v)", lines[len(lines)-1], err)
	}
	rows := make([]sweep.Row, 0, len(lines)-1)
	for _, ln := range lines[:len(lines)-1] {
		var r sweep.Row
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("bad NDJSON row %q: %v", ln, err)
		}
		rows = append(rows, r)
	}
	return rows, sum
}

// TestSweepGoldenPriceGrid pins the acceptance grid: a 3-machine x
// 4-style x 8-size price sweep must answer every cell byte-identically
// to the individual point query — same marshaled response, same
// rendered Text — with rows streamed in cell order.
func TestSweepGoldenPriceGrid(t *testing.T) {
	spec := `{
		"kind": "price",
		"machines": ["t3d", "cray", "paragon"],
		"styles": ["buffer-packing", "chained", "direct", "pvm"],
		"ops": ["1Q64"],
		"words": [8, 16, 24, 32, 40, 48, 56, 64]
	}`
	s := newTestServer(t, Config{})
	w := post(s, "/v1/sweep", spec)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	rows, sum := parseNDJSON(t, w.Body.String())
	if len(rows) != 3*4*8 {
		t.Fatalf("got %d rows, want 96", len(rows))
	}
	if sum.Cells != 96 || sum.Failed != 0 || sum.Error != "" {
		t.Fatalf("summary = %+v", sum)
	}

	// Point queries on an INDEPENDENT server: the per-cell answer must
	// not depend on which frontend asked.
	point := newTestServer(t, Config{})
	for i, r := range rows {
		if r.Index != i {
			t.Fatalf("row %d has index %d (rows must stream in cell order)", i, r.Index)
		}
		if r.PriceReq == nil || r.Price == nil || r.Err != "" {
			t.Fatalf("row %d incomplete: %+v", i, r)
		}
		reqBody, err := json.Marshal(r.PriceReq)
		if err != nil {
			t.Fatal(err)
		}
		pw := post(point, "/v1/price", string(reqBody))
		if pw.Code != http.StatusOK {
			t.Fatalf("point query for cell %d = %d: %s", i, pw.Code, pw.Body)
		}
		var want query.PriceResponse
		if err := json.Unmarshal(pw.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(r.Price)
		wantJSON, _ := json.Marshal(want)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("cell %d differs from point query:\nsweep %s\npoint %s", i, gotJSON, wantJSON)
		}
		if r.Price.Text != want.Text {
			t.Errorf("cell %d text not byte-identical:\n--- sweep\n%s\n--- point\n%s", i, r.Price.Text, want.Text)
		}
	}
}

// TestSweepEvalMatchesEvalEndpoint is the eval-kind half of the same
// contract, against /v1/eval.
func TestSweepEvalMatchesEvalEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(s, "/v1/sweep", `{"kind":"eval","machines":["t3d","paragon"],"ops":["1Q64","wQw"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	rows, _ := parseNDJSON(t, w.Body.String())
	for _, r := range rows {
		reqBody, _ := json.Marshal(r.EvalReq)
		pw := post(s, "/v1/eval", string(reqBody))
		if pw.Code != http.StatusOK {
			t.Fatalf("point eval = %d", pw.Code)
		}
		var want query.EvalResponse
		if err := json.Unmarshal(pw.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if r.Eval.Text != want.Text {
			t.Errorf("cell %d text differs from /v1/eval", r.Index)
		}
	}
}

// One bad cell yields exactly one error row; the sweep completes with
// every other cell answered.
func TestSweepPartialFailure(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(s, "/v1/sweep", `{"kind":"price","machines":["t3d","cm5","paragon"],"ops":["1Q64"],"styles":["chained"],"words":[64]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	rows, sum := parseNDJSON(t, w.Body.String())
	if len(rows) != 3 || sum.Cells != 3 || sum.Failed != 1 || sum.Error != "" {
		t.Fatalf("rows %d, summary %+v", len(rows), sum)
	}
	var bad int
	for _, r := range rows {
		if r.Err != "" {
			bad++
			if !strings.Contains(r.Err, "unknown machine") || r.PriceReq.Machine != "cm5" {
				t.Errorf("error row = %+v", r)
			}
		} else if r.Price == nil || r.Price.MBps <= 0 {
			t.Errorf("good row incomplete: %+v", r)
		}
	}
	if bad != 1 {
		t.Errorf("%d error rows, want exactly 1", bad)
	}
	if s.metrics.sweepFailed.Load() != 1 {
		t.Errorf("sweepFailed = %d", s.metrics.sweepFailed.Load())
	}
}

// A repeated sweep answers every cell from the cache, and the /metrics
// counters account for it.
func TestSweepRepeatFullyCached(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"kind":"eval","machines":["t3d","paragon"],"ops":["1Q64","1Q1"]}`
	first := post(s, "/v1/sweep", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first sweep = %d", first.Code)
	}
	_, sum1 := parseNDJSON(t, first.Body.String())
	if sum1.Cached != 0 {
		t.Fatalf("cold sweep reported %d cached cells", sum1.Cached)
	}
	second := post(s, "/v1/sweep", body)
	rows, sum2 := parseNDJSON(t, second.Body.String())
	if sum2.Cached != sum2.Cells || sum2.Cells != 4 {
		t.Fatalf("repeat summary = %+v, want all %d cached", sum2, sum2.Cells)
	}
	for _, r := range rows {
		if !r.Cached {
			t.Errorf("repeat cell %d not cached", r.Index)
		}
	}
	// Cell results are byte-identical across the two passes (modulo the
	// cached flag and the summary's cached count).
	cellLines := func(body string) string {
		lines := strings.Split(strings.TrimSpace(body), "\n")
		return stripCachedFlags(strings.Join(lines[:len(lines)-1], "\n"))
	}
	if cellLines(first.Body.String()) != cellLines(second.Body.String()) {
		t.Error("cached sweep rows differ from cold rows")
	}
	m := get(s, "/metrics").Body.String()
	for _, want := range []string{
		"ctserved_sweep_cells_total 8",
		"ctserved_sweep_cells_cached_total 4",
		"ctserved_sweep_cells_failed_total 0",
		"ctserved_cache_bytes ",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	st := s.Snapshot()
	if st.Sweep.Cells != 8 || st.Sweep.Cached != 4 || st.Sweep.Failed != 0 {
		t.Errorf("snapshot sweep stats = %+v", st.Sweep)
	}
}

// stripCachedFlags removes the per-row cached marker so cold and warm
// passes can be compared byte for byte.
func stripCachedFlags(body string) string {
	return strings.ReplaceAll(body, `"cached":true,`, "")
}

// Malformed specs are rejected whole with 400 before any row streams.
func TestSweepBadSpec(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []string{
		`{"kind":"nope"}`,
		`not json`,
		`{"kind":"eval"}`,
		`{"kind":"eval","ops":["1Q1"],"styles":["pvm"]}`,
		`{"kind":"eval","exprs:}`,
	}
	for _, body := range cases {
		w := post(s, "/v1/sweep", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("POST /v1/sweep %s = %d, want 400 (body %s)", body, w.Code, w.Body)
		}
	}
	if w := get(s, "/v1/sweep"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep = %d, want 405", w.Code)
	}
}

// A sweep that cannot finish inside the request deadline ends its
// stream with a summary row carrying the deadline error; the rows
// already computed were streamed first.
func TestSweepDeadlineEndsStream(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	release := make(chan struct{})
	var once sync.Once
	s.testHookJobStart = func() { <-release }
	// The handler returns only after its queued chunks have started
	// (drain semantics: queued work completes), so the hook must be
	// released from outside the request — after the 30ms deadline has
	// long fired, and before the handler can finish any cell.
	timer := time.AfterFunc(300*time.Millisecond, func() { once.Do(func() { close(release) }) })
	t.Cleanup(func() { timer.Stop(); once.Do(func() { close(release) }) })

	w := post(s, "/v1/sweep", `{"kind":"eval","machines":["t3d","paragon"],"ops":["1Q64","1Q1"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d (NDJSON streams start as 200)", w.Code)
	}
	_, sum := parseNDJSON(t, w.Body.String())
	if sum.Error == "" || !strings.Contains(sum.Error, "deadline") {
		t.Errorf("summary = %+v, want a deadline error", sum)
	}
}

// TestCollapsedWaiterHonorsOwnDeadline is the deterministic regression
// test for the do() deadline audit: a request that collapses onto an
// in-flight leader must get its 504 the moment its OWN deadline
// expires, not wait for the leader. The worker hook holds the leader's
// execution open for the whole test.
func TestCollapsedWaiterHonorsOwnDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var once sync.Once
	s.testHookJobStart = func() {
		started <- struct{}{}
		<-release
	}
	t.Cleanup(func() { once.Do(func() { close(release) }) })

	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := s.do(context.Background(), "key", func() (interface{}, error) {
			return "v", nil
		})
		leaderErr <- err
	}()
	<-started // the leader's job is executing, blocked in the hook

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, _, err := s.do(ctx, "key", func() (interface{}, error) {
		t.Error("waiter must collapse, never execute")
		return nil, nil
	})
	waited := time.Since(begin)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want DeadlineExceeded", err)
	}
	if waited > 2*time.Second {
		t.Fatalf("waiter escaped after %v; it must fail as soon as its own deadline expires", waited)
	}
	if got := s.metrics.cacheCollapsed.Load(); got != 1 {
		t.Errorf("collapsed = %d, want 1", got)
	}

	once.Do(func() { close(release) })
	if err := <-leaderErr; err != nil {
		t.Errorf("leader err = %v", err)
	}
}

// A request already past its deadline fails immediately — even when
// the answer sits in the cache.
func TestExpiredContextFailsBeforeCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := post(s, "/v1/eval", `{"expr":"1C64"}`); w.Code != http.StatusOK {
		t.Fatalf("warm-up = %d", w.Code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	key := query.EvalRequest{Expr: "1C64"}.Canon().Fingerprint()
	if _, _, err := s.do(ctx, key, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want Canceled", err)
	}
}

// TestCacheByteCap: a burst of oversized values must never push the
// cache past its byte budget; eviction is by recency; a single value
// larger than the whole budget is not admitted at all; stored bodies
// and request aliases are charged like the values.
func TestCacheByteCap(t *testing.T) {
	const budget = 10_000
	c := newLRUCache(1000, budget)
	big := query.EvalResponse{Text: strings.Repeat("x", 2000)}
	for i := 0; i < 50; i++ {
		c.add(fmt.Sprintf("cell-%03d", i), big)
		if got := c.residentBytes(); got > budget {
			t.Fatalf("after add %d: resident %d bytes exceeds budget %d", i, got, budget)
		}
	}
	if c.len() == 0 || c.len() > 4 {
		t.Errorf("entries = %d, want a handful under the byte budget", c.len())
	}
	// Most recent entries survive; the oldest were evicted.
	if c.entry("cell-049") == nil {
		t.Error("most recent entry evicted")
	}
	if c.entry("cell-000") != nil {
		t.Error("oldest entry still resident past the budget")
	}

	// A value over the whole budget is rejected outright.
	c2 := newLRUCache(10, 1000)
	c2.add("huge", query.EvalResponse{Text: strings.Repeat("x", 5000)})
	if c2.len() != 0 || c2.residentBytes() != 0 {
		t.Errorf("oversized value admitted: %d entries, %d bytes", c2.len(), c2.residentBytes())
	}

	// Refreshing a key with a larger value adjusts the accounting.
	c3 := newLRUCache(10, 100_000)
	c3.add("k", query.EvalResponse{Text: "small"})
	before := c3.residentBytes()
	c3.add("k", query.EvalResponse{Text: strings.Repeat("y", 1000)})
	if c3.len() != 1 || c3.residentBytes() <= before {
		t.Errorf("refresh accounting wrong: %d entries, %d -> %d bytes", c3.len(), before, c3.residentBytes())
	}

	// The entry-count bound still applies independently.
	c4 := newLRUCache(2, 1<<20)
	for i := 0; i < 5; i++ {
		c4.add(fmt.Sprintf("k%d", i), query.EvalResponse{Text: "t"})
	}
	if c4.len() != 2 {
		t.Errorf("entry cap ignored: %d entries", c4.len())
	}

	// A stored body and a request alias count against the budget.
	c5 := newLRUCache(10, 100_000)
	c5.add("k", query.EvalResponse{Text: "t"})
	e := c5.entry("k")
	before = c5.residentBytes()
	body := c5.storeBody(e, encodeOK(e.val))
	alias := []byte("eval\n{\"expr\":\"1C1\"}")
	c5.claim(e, alias)
	if got, want := c5.residentBytes(), before+hotOverhead+int64(len(body)+len(alias)); got != want {
		t.Errorf("resident %d bytes with a stored body and alias, want %d", got, want)
	}

	// A stored body that pushes the cache past its budget evicts the
	// least recently used entries; one that could never fit beside its
	// entry is not stored.
	c6 := newLRUCache(1000, budget)
	for i := 0; i < 4; i++ {
		c6.add(fmt.Sprintf("cell-%03d", i), big)
	}
	hot := c6.entry("cell-003")
	c6.storeBody(hot, make([]byte, 2000))
	if got := c6.residentBytes(); got > budget {
		t.Errorf("stored body pushed resident %d bytes past budget %d", got, budget)
	}
	if c6.entry("cell-000") != nil {
		t.Error("oldest entry survived a stored body that needed its room")
	}
	if c6.entry("cell-003") == nil {
		t.Error("the hit entry was evicted for its own body")
	}
	c7 := newLRUCache(10, 1000)
	c7.add("k", query.EvalResponse{Text: "t"})
	e7 := c7.entry("k")
	before = c7.residentBytes()
	if c7.storeBody(e7, make([]byte, 1000)); e7.body() != nil || c7.residentBytes() != before {
		t.Errorf("a body that cannot fit beside its entry was stored (%d bytes resident)", c7.residentBytes())
	}
}

// TestCacheSizesEveryKind: every query kind's answer is sized from its
// own fields, so a large fit or collective answer is charged at least
// its rendered text rather than a flat default.
func TestCacheSizesEveryKind(t *testing.T) {
	xe6, err := query.ResolveMachine("xe6")
	if err != nil {
		t.Fatal(err)
	}
	fit, err := query.Fit(query.FitRequest{Base: "xe6", Rows: calibrate.Synthesize(xe6, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got, min := approxSize("k", fit), int64(len(fit.Text)+len(fit.Profile)); got < min {
		t.Errorf("approxSize(xe6 fit) = %d, want >= len(Text)+len(Profile) = %d", got, min)
	}
	coll, err := query.Collective(query.CollectiveRequest{Machine: "t3d", Collective: "all-to-all"})
	if err != nil {
		t.Fatal(err)
	}
	if got, min := approxSize("k", coll), int64(len(coll.Text)); got < min {
		t.Errorf("approxSize(collective) = %d, want >= len(Text) = %d", got, min)
	}
}

// Sweeps and point queries share one result path under concurrent
// load (run with -race in CI): every request succeeds and cells stay
// byte-identical.
func TestSweepUnderConcurrentLoad(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	sweepBody := `{"kind":"eval","machines":["t3d","paragon"],"ops":["1Q64","wQw","1Q1"]}`
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				w := post(s, "/v1/sweep", sweepBody)
				if w.Code != http.StatusOK {
					errs <- fmt.Sprintf("sweep -> %d", w.Code)
					return
				}
				lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
				if len(lines) != 7 { // 6 cells + summary
					errs <- fmt.Sprintf("sweep returned %d lines", len(lines))
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := mixedBodies[(g+i)%len(mixedBodies)]
				if w := post(s, q.path, q.body); w.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s -> %d", q.path, w.Code)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got := s.metrics.sweepCells.Load(); got != 4*5*6 {
		t.Errorf("sweepCells = %d, want %d", got, 4*5*6)
	}
}

func benchSweepBody() string {
	return `{"kind":"eval","machines":["t3d","paragon"],"ops":["1Q64","wQw","1Q1","64Q1"]}`
}

// BenchmarkSweepWarm measures a fully cached sweep end to end (HTTP
// handler, NDJSON encoding, cache hits).
func BenchmarkSweepWarm(b *testing.B) {
	s := New(Config{})
	defer s.Close()
	if w := postBench(s, benchSweepBody()); w.Code != http.StatusOK {
		b.Fatalf("warm-up = %d", w.Code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w := postBench(s, benchSweepBody()); w.Code != http.StatusOK {
			b.Fatalf("code = %d", w.Code)
		}
	}
}

// BenchmarkSweepCold measures the uncached path: every iteration runs
// on a fresh server, so each cell executes its query.
func BenchmarkSweepCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New(Config{})
		if w := postBench(s, benchSweepBody()); w.Code != http.StatusOK {
			b.Fatalf("code = %d", w.Code)
		}
		s.Close()
	}
}

func postBench(s *Server, body string) *responseRecorderLite {
	// httptest.NewRecorder allocates; a tiny local recorder keeps the
	// benchmark focused on the server path.
	req, _ := http.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := &responseRecorderLite{Code: http.StatusOK, header: http.Header{}}
	s.Handler().ServeHTTP(w, req)
	return w
}

type responseRecorderLite struct {
	Code   int
	header http.Header
	n      int64
}

func (w *responseRecorderLite) Header() http.Header { return w.header }
func (w *responseRecorderLite) WriteHeader(c int)   { w.Code = c }
func (w *responseRecorderLite) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestSweepAnalyticAccounting pins the NDJSON-path provenance plumbing:
// a law-covered price grid reports analytic cells in the per-row flag,
// the terminal summary, /metrics and the stats snapshot — and a repeat
// of the same sweep reports them as cached instead (a cache hit is not
// an evaluation).
func TestSweepAnalyticAccounting(t *testing.T) {
	s := newTestServer(t, Config{})
	// Contiguous ops at >= 16 periods of the largest machine period are
	// law-covered on both machines (see internal/xfer law coverage).
	body := `{"kind":"price","machines":["t3d","paragon"],"ops":["1Q1"],"words":[131072,163840]}`
	w := post(s, "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	rows, sum := parseNDJSON(t, w.Body.String())
	if sum.Cells != 4 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Analytic != 4 {
		t.Errorf("summary analytic = %d, want 4 (all cells law-covered)", sum.Analytic)
	}
	for _, r := range rows {
		if !r.Analytic {
			t.Errorf("row %d not marked analytic: %+v", r.Index, r)
		}
	}
	m := get(s, "/metrics").Body.String()
	if !strings.Contains(m, "ctserved_sweep_cells_analytic_total 4") {
		t.Errorf("metrics missing analytic counter:\n%s", m)
	}
	if st := s.Snapshot(); st.Sweep.Analytic != 4 {
		t.Errorf("snapshot analytic = %d, want 4", st.Sweep.Analytic)
	}

	// Repeat: cache hits, not analytic evaluations.
	_, sum2 := parseNDJSON(t, post(s, "/v1/sweep", body).Body.String())
	if sum2.Cached != 4 || sum2.Analytic != 0 {
		t.Errorf("repeat summary = %+v, want 4 cached / 0 analytic", sum2)
	}
}

// TestSweepCollectiveAnalyticAccounting extends the provenance plumbing
// to collective cells: word counts at or past one structural period
// (t3d pairwise: 512 words) answer from the per-strategy words laws and
// surface as analytic rows in the NDJSON flags, the summary and the
// /metrics counter — through the same generic plumbing the price laws
// use, with no collective-specific serve code.
func TestSweepCollectiveAnalyticAccounting(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"kind":"collective","machines":["t3d"],"collectives":["shift"],"strategies":["pairwise"],"node_counts":[16],"words":[1024,2048]}`
	w := post(s, "/v1/sweep", body)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	rows, sum := parseNDJSON(t, w.Body.String())
	if sum.Cells != 2 || sum.Failed != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.Analytic != 2 {
		t.Errorf("summary analytic = %d, want 2 (both cells law-covered)", sum.Analytic)
	}
	for _, r := range rows {
		if !r.Analytic {
			t.Errorf("row %d not marked analytic: %+v", r.Index, r)
		}
	}
	m := get(s, "/metrics").Body.String()
	if !strings.Contains(m, "ctserved_sweep_cells_analytic_total 2") {
		t.Errorf("metrics missing analytic counter:\n%s", m)
	}
}
