package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ctcomm/internal/query"
	"ctcomm/internal/runstats"
)

// newTestServer returns a started server and a cleanup-registered Close.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// post performs one in-process POST and returns the recorder.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func TestEvalEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(s, "/v1/eval", `{"machine":"t3d","expr":"1C64"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	var resp query.EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MBps <= 0 || resp.Machine != "Cray T3D" {
		t.Errorf("resp = %+v", resp)
	}

	// The serve half of the determinism contract: the served text is
	// byte-identical to the query core's (and, by cmd/ctmodel's golden
	// test, to ctmodel stdout).
	want, err := query.Eval(query.EvalRequest{Machine: "t3d", Expr: "1C64"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != want.Text {
		t.Errorf("served text differs from query text:\n--- served\n%s\n--- query\n%s", resp.Text, want.Text)
	}
}

func TestPlanEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(s, "/v1/plan", `{"machine":"t3d","n":4096,"p":16,"src":"BLOCK","dst":"CYCLIC"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	var resp query.PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Recommendation != "chained" {
		t.Errorf("resp = %+v", resp)
	}
	want, err := query.Plan(query.PlanRequest{Machine: "t3d", N: 4096, P: 16, Src: "BLOCK", Dst: "CYCLIC"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != want.Text {
		t.Errorf("served text differs from query text:\n--- served\n%s\n--- query\n%s", resp.Text, want.Text)
	}
}

func TestPriceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(s, "/v1/price", `{"machine":"paragon","style":"chained","x":"1","y":"64","words":4096}`)
	if w.Code != http.StatusOK {
		t.Fatalf("code = %d, body %s", w.Code, w.Body)
	}
	var resp query.PriceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.MBps <= 0 || resp.Op != "1Q64" || resp.Style != "chained" {
		t.Errorf("resp = %+v", resp)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		path, body string
		want       int
	}{
		{"/v1/eval", `{"machine":"cm5","expr":"1C1"}`, http.StatusBadRequest},
		{"/v1/eval", `{"expr":"1Z1"}`, http.StatusBadRequest},
		{"/v1/eval", `{}`, http.StatusBadRequest},
		{"/v1/eval", `{"exprs":"1C1"}`, http.StatusBadRequest}, // unknown field
		{"/v1/eval", `not json`, http.StatusBadRequest},
		{"/v1/plan", `{"n":-4,"p":8}`, http.StatusBadRequest},
		{"/v1/plan", `{"n":1048577,"p":8}`, http.StatusBadRequest},
		{"/v1/plan", `{"transpose":1025,"p":8}`, http.StatusBadRequest},
		{"/v1/plan", `{"n":1024,"p":4097}`, http.StatusBadRequest},
		{"/v1/price", `{"x":"1","y":"1","style":"mpi"}`, http.StatusBadRequest},
		{"/v1/price", `{"x":"1","y":"1","style":"direct","words":2147483649}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if w := post(s, c.path, c.body); w.Code != c.want {
			t.Errorf("POST %s %s = %d, want %d (body %s)", c.path, c.body, w.Code, c.want, w.Body)
		}
	}
	if w := get(s, "/v1/eval"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval = %d, want 405", w.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := get(s, "/healthz"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", w.Code, w.Body)
	}
	post(s, "/v1/eval", `{"expr":"1C64"}`)
	w := get(s, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d", w.Code)
	}
	for _, want := range []string{
		`ctserved_requests_total{endpoint="eval",code="200"} 1`,
		"ctserved_cache_misses_total 1",
		"ctserved_queue_capacity",
		"ctserved_request_seconds_bucket",
		"ctserved_calibration_hits_total",
	} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, w.Body)
		}
	}
}

// A cold calibrated eval measures a rate table; the wall time it took
// shows in /metrics and in /v1/stats, and the answer itself is unchanged.
func TestCalibrationSecondsExported(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"machine":"xe6","rates":"calibrated","op":"1Q64"}`
	w := post(s, "/v1/eval", body)
	if w.Code != http.StatusOK {
		t.Fatalf("eval = %d %s", w.Code, w.Body)
	}
	want, err := query.Eval(query.EvalRequest{Machine: "xe6", Rates: "calibrated", Op: "1Q64"})
	if err != nil {
		t.Fatal(err)
	}
	var got query.EvalResponse
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Text != want.Text {
		t.Errorf("served text differs from query text:\n--- served\n%s\n--- query\n%s", got.Text, want.Text)
	}
	st := s.Snapshot()
	if st.Calibration.Misses < 1 || st.Calibration.Seconds <= 0 {
		t.Errorf("calibration stats = %+v, want a miss and positive seconds", st.Calibration)
	}
	m := get(s, "/metrics").Body.String()
	i := strings.Index(m, "\nctserved_calibration_seconds_total ")
	if i < 0 {
		t.Fatalf("metrics missing ctserved_calibration_seconds_total:\n%s", m)
	}
	line := m[i+1:]
	line = line[:strings.IndexByte(line, '\n')]
	if v, err := strconv.ParseFloat(strings.Fields(line)[1], 64); err != nil || v <= 0 {
		t.Errorf("%q: want a positive number of seconds", line)
	}
}

// A words-axis sweep fits laws; /metrics and /v1/stats report the
// process-wide fit counts by family and outcome, and the certified part
// of the fitted ones, and agree.
func TestLawFitsExported(t *testing.T) {
	s := newTestServer(t, Config{})
	before := s.Snapshot().LawFits
	spec := `{"kind":"price","machines":["t3d"],"ops":["1Q64"],"styles":["chained"],"words":[32768,36864,40960]}`
	if w := post(s, "/v1/sweep", spec); w.Code != http.StatusOK {
		t.Fatalf("sweep = %d %s", w.Code, w.Body)
	}
	var st struct {
		LawFits map[string]runstats.LawFitStats `json:"law_fits"`
	}
	if err := json.Unmarshal(get(s, "/v1/stats").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LawFits["collective"]; !ok {
		t.Errorf("law_fits = %+v, want both families", st.LawFits)
	}
	tr := st.LawFits["transfer"]
	if tr.Fitted <= before["transfer"].Fitted {
		t.Errorf("transfer fits %d after a law sweep, %d before; want more", tr.Fitted, before["transfer"].Fitted)
	}
	if tr.Certified <= before["transfer"].Certified || tr.Certified > tr.Fitted {
		t.Errorf("transfer certified fits %d (%d before) of %d fitted; want more, and at most the fitted",
			tr.Certified, before["transfer"].Certified, tr.Fitted)
	}
	m := get(s, "/metrics").Body.String()
	for outcome, n := range map[string]int64{"fitted": tr.Fitted, "rejected": tr.Rejected} {
		line := fmt.Sprintf("\nctserved_law_fits_total{family=\"transfer\",outcome=%q} %d\n", outcome, n)
		if !strings.Contains(m, line) {
			t.Errorf("metrics missing %q", line[1:])
		}
	}
	if line := fmt.Sprintf("\nctserved_law_certified_fits_total{family=\"transfer\"} %d\n", tr.Certified); !strings.Contains(m, line) {
		t.Errorf("metrics missing %q", line[1:])
	}
}

// A repeated query must be answered from the cache, byte-identically.
func TestCacheHitByteIdentical(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{"machine":"t3d","op":"1Q64"}`
	first := post(s, "/v1/eval", body)
	second := post(s, "/v1/eval", body)
	if first.Code != 200 || second.Code != 200 {
		t.Fatalf("codes %d, %d", first.Code, second.Code)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("cached response differs:\n%s\nvs\n%s", first.Body, second.Body)
	}
	st := s.Snapshot()
	if st.Cache.Hits < 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 miss and >= 1 hit", st.Cache)
	}
	// Requests that differ only in spelling of defaults share an entry.
	third := post(s, "/v1/eval", `{"machine":"t3d","rates":"paper","op":"1Q64"}`)
	if third.Body.String() != first.Body.String() {
		t.Errorf("defaulted request missed the cache entry")
	}
}

// With the one worker busy and the one queue slot full, the next
// request must be shed with 429 + Retry-After, and the server must
// stay live throughout.
func TestOverloadSheds429(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHookJobStart = func() {
		started <- struct{}{}
		<-release
	}

	type res struct{ code int }
	results := make(chan res, 2)
	do := func(expr string) {
		w := post(s, "/v1/eval", fmt.Sprintf(`{"expr":%q}`, expr))
		results <- res{w.Code}
	}
	go do("1C1")  // occupies the worker
	<-started     // worker is now blocked inside the job
	go do("1C64") // occupies the queue slot
	waitFor(t, func() bool { return s.metrics.queueDepth.Load() == 1 })

	w := post(s, "/v1/eval", `{"expr":"1C2"}`) // no room: shed
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload code = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}
	if got := s.Snapshot().Queue.Rejected; got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
	// The control endpoints stay responsive under overload.
	if w := get(s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz under overload = %d", w.Code)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; r.code != http.StatusOK {
			t.Errorf("held request finished with %d, want 200", r.code)
		}
	}
	// After the load passes, shed queries succeed again.
	if w := post(s, "/v1/eval", `{"expr":"1C2"}`); w.Code != http.StatusOK {
		t.Errorf("post-overload request = %d, want 200", w.Code)
	}
}

// A sub-second RetryAfter must still advertise at least 1 second:
// "Retry-After: 0" tells clients to retry immediately, which is a
// retry storm against a server that just shed load.
func TestRetryAfterSubSecondClampsToOne(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 50 * time.Millisecond})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHookJobStart = func() {
		started <- struct{}{}
		<-release
	}
	defer close(release)

	go post(s, "/v1/eval", `{"expr":"1C1"}`) // occupies the worker
	<-started
	go post(s, "/v1/eval", `{"expr":"1C64"}`) // occupies the queue slot
	waitFor(t, func() bool { return s.metrics.queueDepth.Load() == 1 })

	w := post(s, "/v1/eval", `{"expr":"1C2"}`) // no room: shed
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overload code = %d, want 429 (body %s)", w.Code, w.Body)
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q for 50ms RetryAfter, want %q", ra, "1")
	}
}

// A request whose deadline expires while its job is stuck gets 504; the
// job's eventual answer still warms the cache.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, RequestTimeout: 30 * time.Millisecond})
	release := make(chan struct{})
	var once sync.Once
	s.testHookJobStart = func() { <-release }

	w := post(s, "/v1/eval", `{"expr":"1C8"}`)
	once.Do(func() { close(release) })
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code = %d, want 504 (body %s)", w.Code, w.Body)
	}
	// The abandoned job still completes and caches its result.
	waitFor(t, func() bool { return s.cache.len() == 1 })
}

// Identical queries in flight collapse onto one execution.
func TestSingleflightCollapse(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.testHookJobStart = func() {
		started <- struct{}{}
		<-release
	}

	const n = 4
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			w := post(s, "/v1/eval", `{"expr":"1C32"}`)
			codes <- w.Code
		}()
	}
	<-started // leader executing
	waitFor(t, func() bool { return s.metrics.cacheCollapsed.Load() == n-1 })
	close(release)
	for i := 0; i < n; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Errorf("code = %d", c)
		}
	}
	st := s.Snapshot()
	if st.Cache.Misses != 1 || st.Cache.Collapsed != n-1 {
		t.Errorf("cache stats = %+v, want 1 miss and %d collapsed", st.Cache, n-1)
	}
}

// Graceful shutdown: in-flight requests finish, then the worker pool
// drains, and nothing deadlocks.
func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s.testHookJobStart = func() {
		started <- struct{}{}
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)

	url := "http://" + ln.Addr().String() + "/v1/eval"
	resCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(`{"expr":"1C16"}`))
		if err != nil {
			errCh <- err
			return
		}
		resCh <- resp
	}()
	<-started // the request is in flight, its job blocked

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- httpSrv.Shutdown(ctx)
	}()

	time.Sleep(20 * time.Millisecond) // let Shutdown begin refusing new work
	close(release)                    // drain: the in-flight job finishes

	select {
	case resp := <-resCh:
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "mbps") {
			t.Errorf("drained request = %d %s", resp.StatusCode, b)
		}
	case err := <-errCh:
		t.Fatalf("in-flight request failed during drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request never finished")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	s.Close() // must not deadlock
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
