package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ctcomm/internal/query"
	"ctcomm/internal/serve"
)

// mixedBodies mirrors the serve package's steady-state workload.
var mixedBodies = []struct{ path, body string }{
	{"/v1/eval", `{"machine":"t3d","expr":"1C64"}`},
	{"/v1/eval", `{"machine":"t3d","op":"1Q64"}`},
	{"/v1/eval", `{"machine":"paragon","op":"wQw","congestion":4}`},
	{"/v1/price", `{"machine":"t3d","style":"chained","x":"1","y":"64","words":4096}`},
	{"/v1/plan", `{"machine":"t3d","n":1024,"p":8,"src":"BLOCK","dst":"CYCLIC"}`},
	{"/v1/plan", `{"machine":"paragon","n":1024,"p":8,"src":"BLOCK","dst":"CYCLIC(4)"}`},
}

// fleet is n in-process ctserved replicas behind real listeners.
type fleet struct {
	servers []*serve.Server
	https   []*httptest.Server
	urls    []string
}

func newFleet(t testing.TB, n int, cfg serve.Config) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		s := serve.New(cfg)
		hs := httptest.NewServer(s.Handler())
		f.servers = append(f.servers, s)
		f.https = append(f.https, hs)
		f.urls = append(f.urls, hs.URL)
	}
	t.Cleanup(func() {
		for i := range f.servers {
			f.https[i].Close()
			f.servers[i].Close()
		}
	})
	return f
}

func newRouter(t testing.TB, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// post drives the router handler directly (the router still reaches
// its replicas over real HTTP).
func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterGoldenPointQueries pins the core contract: for every point
// query, the routed response is byte-identical to a single ctserved's
// (which golden tests elsewhere pin to the CLIs). Which replica
// answers must not change what is answered.
func TestRouterGoldenPointQueries(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 2})
	rt := newRouter(t, Config{Replicas: f.urls, ProbeInterval: -1})
	single := serve.New(serve.Config{Workers: 2})
	defer single.Close()

	for _, q := range mixedBodies {
		rw := post(rt.Handler(), q.path, q.body)
		sw := post(single.Handler(), q.path, q.body)
		if rw.Code != http.StatusOK || sw.Code != http.StatusOK {
			t.Fatalf("%s: router %d, single %d: %s", q.path, rw.Code, sw.Code, rw.Body)
		}
		if rw.Body.String() != sw.Body.String() {
			t.Errorf("%s %s not byte-identical:\n--- router\n%s\n--- single\n%s",
				q.path, q.body, rw.Body, sw.Body)
		}
	}
	if got := rt.Snapshot().Proxied; got != int64(len(mixedBodies)) {
		t.Errorf("proxied = %d, want %d", got, len(mixedBodies))
	}

	// Close the chain to the CLIs: the routed text equals the query
	// core's, which cmd/ctmodel's golden test pins to ctmodel stdout.
	rw := post(rt.Handler(), "/v1/eval", `{"machine":"t3d","expr":"1C64"}`)
	var resp struct {
		Text string `json:"text"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := query.Eval(query.EvalRequest{Machine: "t3d", Expr: "1C64"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Text != want.Text {
		t.Errorf("routed text differs from query core:\n--- routed\n%s\n--- query\n%s", resp.Text, want.Text)
	}
}

// TestRouterShardStability: the same fingerprint routes to the same
// replica, so a repeat is a cache hit somewhere in the fleet — the
// sharded-cache property that multiplies effective capacity.
func TestRouterShardStability(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 1})
	rt := newRouter(t, Config{Replicas: f.urls, ProbeInterval: -1})
	for i := 0; i < 2; i++ {
		if w := post(rt.Handler(), "/v1/eval", `{"machine":"t3d","expr":"1C64"}`); w.Code != http.StatusOK {
			t.Fatalf("eval %d = %d", i, w.Code)
		}
	}
	var hits, misses int64
	for _, s := range f.servers {
		st := s.Snapshot()
		hits += st.Cache.Hits
		misses += st.Cache.Misses
	}
	if hits != 1 || misses != 1 {
		t.Errorf("fleet saw %d hits / %d misses, want 1/1 (repeat must land on the same replica)", hits, misses)
	}
}

// TestRouterSweepGolden pins the fan-out: the acceptance 96-cell price
// grid through the router is byte-identical — every row AND the NDJSON
// row order — to a single ctserved streaming the same spec.
func TestRouterSweepGolden(t *testing.T) {
	spec := `{
		"kind": "price",
		"machines": ["t3d", "cray", "paragon"],
		"styles": ["buffer-packing", "chained", "direct", "pvm"],
		"ops": ["1Q64"],
		"words": [8, 16, 24, 32, 40, 48, 56, 64]
	}`
	f := newFleet(t, 3, serve.Config{Workers: 2})
	rt := newRouter(t, Config{
		Replicas:      []string{"r0=" + f.urls[0], "r1=" + f.urls[1], "r2=" + f.urls[2]},
		ProbeInterval: -1,
	})
	single := serve.New(serve.Config{Workers: 2})
	defer single.Close()

	rw := post(rt.Handler(), "/v1/sweep", spec)
	sw := post(single.Handler(), "/v1/sweep", spec)
	if rw.Code != http.StatusOK || sw.Code != http.StatusOK {
		t.Fatalf("router %d, single %d: %s", rw.Code, sw.Code, rw.Body)
	}
	if ct := rw.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if rw.Body.String() != sw.Body.String() {
		rl, sl := strings.Split(rw.Body.String(), "\n"), strings.Split(sw.Body.String(), "\n")
		for i := range rl {
			if i >= len(sl) || rl[i] != sl[i] {
				t.Fatalf("sweep stream diverges at line %d:\nrouter %s\nsingle %s", i, rl[i], sl[i])
			}
		}
		t.Fatal("sweep stream differs in length")
	}

	// The grid must actually have been sharded, not sent to one replica.
	served := 0
	for _, s := range f.servers {
		if s.Snapshot().Sweep.Cells > 0 {
			served++
		}
	}
	if served < 2 {
		t.Errorf("only %d replicas served sweep cells; grid was not fanned out", served)
	}
	if st := rt.Snapshot(); st.Sweeps != 1 || st.Cells != 96 {
		t.Errorf("router stats = %+v, want 1 sweep / 96 cells", st)
	}
}

// TestRouterFailover: with one replica dead, point queries fail over
// to ring successors and the dead replica is marked down immediately.
func TestRouterFailover(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1})
	// Stable ring names: the key distribution (and so the test) does not
	// depend on which ephemeral ports the fleet got.
	rt := newRouter(t, Config{
		Replicas:      []string{"r0=" + f.urls[0], "r1=" + f.urls[1]},
		ProbeInterval: -1,
	})
	f.https[0].Close() // kill replica 0's listener; server 0 stays for Cleanup

	// Enough distinct fingerprints that both ring halves are hit.
	for i := 0; i < 20; i++ {
		body := fmt.Sprintf(`{"machine":"t3d","expr":"%dC1"}`, i+2)
		if w := post(rt.Handler(), "/v1/eval", body); w.Code != http.StatusOK {
			t.Fatalf("eval %s with a dead replica = %d: %s", body, w.Code, w.Body)
		}
	}
	st := rt.Snapshot()
	if st.Ejections == 0 {
		t.Errorf("stats = %+v, want the dead replica ejected", st)
	}
	alive := 0
	for _, r := range st.Replicas {
		if r.Routable {
			alive++
		}
	}
	if alive != 1 {
		t.Errorf("%d routable replicas, want 1", alive)
	}

	// A sweep with a dead (already-ejected) replica still completes.
	w := post(rt.Handler(), "/v1/sweep", `{"kind":"eval","machines":["t3d"],"ops":["1Q64","2Q32","4Q16"]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), `"done":true`) {
		t.Errorf("sweep stream missing summary: %s", w.Body)
	}
	if strings.Contains(w.Body.String(), "unreachable") {
		t.Errorf("sweep rows report unreachable shards after ejection: %s", w.Body)
	}
}

// TestRouterDrainAwareRemoval: a draining replica (ctserved shutdown
// announced) leaves the ring on the next probe and returns when the
// drain flag clears — composing with the two-phase shutdown.
func TestRouterDrainAwareRemoval(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1})
	rt := newRouter(t, Config{Replicas: f.urls, ProbeInterval: 10 * time.Millisecond})

	f.servers[0].SetDraining(true)
	waitFor(t, func() bool {
		for _, r := range rt.Snapshot().Replicas {
			if r.Name == f.urls[0] {
				return !r.Routable && r.Healthy
			}
		}
		return false
	})
	// All traffic lands on the surviving replica, no failovers needed.
	before := rt.Snapshot().Failovers
	for _, q := range mixedBodies {
		if w := post(rt.Handler(), q.path, q.body); w.Code != http.StatusOK {
			t.Fatalf("%s while draining = %d", q.path, w.Code)
		}
	}
	if got := rt.Snapshot().Failovers; got != before {
		t.Errorf("failovers = %d, want %d (drain removal must be proactive)", got, before)
	}
	if st := f.servers[0].Snapshot(); st.Cache.Misses != 0 {
		t.Errorf("draining replica executed %d queries, want 0", st.Cache.Misses)
	}

	f.servers[0].SetDraining(false)
	waitFor(t, func() bool {
		for _, r := range rt.Snapshot().Replicas {
			if r.Name == f.urls[0] {
				return r.Routable
			}
		}
		return false
	})
}

// TestRouterNoReplicas: total fleet loss is a clean 502, not a hang.
func TestRouterNoReplicas(t *testing.T) {
	f := newFleet(t, 1, serve.Config{Workers: 1})
	rt := newRouter(t, Config{Replicas: f.urls, ProbeInterval: -1})
	f.https[0].Close()
	if w := post(rt.Handler(), "/v1/eval", `{"expr":"1C64"}`); w.Code != http.StatusBadGateway {
		t.Fatalf("first query after fleet loss = %d, want 502", w.Code)
	}
	// The replica is now ejected: the ring is empty.
	if w := post(rt.Handler(), "/v1/eval", `{"expr":"1C64"}`); w.Code != http.StatusBadGateway {
		t.Fatalf("query with empty ring = %d, want 502", w.Code)
	}
	if w := post(rt.Handler(), "/v1/sweep", `{"kind":"eval","ops":["1Q64"]}`); w.Code != http.StatusBadGateway {
		t.Fatalf("sweep with empty ring = %d, want 502", w.Code)
	}
}

// TestRouterBadRequests: malformed bodies bounce at the router with
// the same envelope shape ctserved uses.
func TestRouterBadRequests(t *testing.T) {
	f := newFleet(t, 1, serve.Config{Workers: 1})
	rt := newRouter(t, Config{Replicas: f.urls, ProbeInterval: -1})
	for _, q := range []struct{ path, body string }{
		{"/v1/eval", `{"bogus":1}`},
		{"/v1/eval", `not json`},
		{"/v1/sweep", `{"kind":"nope"}`},
	} {
		if w := post(rt.Handler(), q.path, q.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s %s = %d, want 400", q.path, q.body, w.Code)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/eval", nil)
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/eval = %d, want 405", w.Code)
	}
}

// BenchmarkRouterMixed drives the steady-state mixed workload through
// the router and a 2-replica fleet — the scale-out analogue of
// BenchmarkServeMixed, recorded (not gated) in BENCH_serve.json by
// cmd/benchtrack.
func BenchmarkRouterMixed(b *testing.B) {
	f := newFleet(b, 2, serve.Config{Workers: 2})
	rt, err := New(Config{Replicas: f.urls, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	for _, q := range mixedBodies { // warm every entry
		if w := post(rt.Handler(), q.path, q.body); w.Code != http.StatusOK {
			b.Fatalf("warmup %s -> %d", q.path, w.Code)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := mixedBodies[i%len(mixedBodies)]
			i++
			if w := post(rt.Handler(), q.path, q.body); w.Code != http.StatusOK {
				b.Fatalf("%s -> %d", q.path, w.Code)
			}
		}
	})
}
