package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/query"
)

// hitQuery is one point query and, when its kind sweeps, the sweep
// spec whose single cell fills the same cache entry.
type hitQuery struct{ path, body, sweep string }

// hitQueries returns one point query of every kind.
func hitQueries(t testing.TB) []hitQuery {
	t.Helper()
	xe6, err := query.ResolveMachine("xe6")
	if err != nil {
		t.Fatal(err)
	}
	fitBody, err := json.Marshal(query.FitRequest{Base: "xe6", Rows: calibrate.Synthesize(xe6, nil)})
	if err != nil {
		t.Fatal(err)
	}
	qs := []hitQuery{
		{"/v1/eval", `{"machine":"t3d","op":"1Q64"}`,
			`{"kind":"eval","machines":["t3d"],"ops":["1Q64"]}`},
		{"/v1/price", `{"machine":"t3d","style":"chained","x":"1","y":"64","words":4096}`,
			`{"kind":"price","machines":["t3d"],"styles":["chained"],"xs":["1"],"ys":["64"],"words":[4096]}`},
		{"/v1/plan", `{"machine":"t3d","n":1024,"p":8,"src":"BLOCK","dst":"CYCLIC"}`,
			`{"kind":"plan","machines":["t3d"],"ns":[1024],"ps":[8],"srcs":["BLOCK"],"dsts":["CYCLIC"]}`},
		{"/v1/collective", `{"machine":"t3d","collective":"all-to-all","words":1024}`,
			`{"kind":"collective","machines":["t3d"],"collectives":["all-to-all"],"words":[1024]}`},
		{"/v1/fit", string(fitBody), ""},
	}
	if len(qs) != len(query.Kinds()) {
		t.Fatalf("%d queries for %d kinds", len(qs), len(query.Kinds()))
	}
	return qs
}

// sameResponse fails unless got matches want in status, headers and
// body bytes.
func sameResponse(t testing.TB, what string, want, got *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || got.Body.String() != want.Body.String() {
		t.Errorf("%s differs:\n--- want %d %v\n%s\n--- got %d %v\n%s",
			what, want.Code, want.Header(), want.Body, got.Code, got.Header(), got.Body)
	}
}

// aliasCount returns the number of request aliases c holds.
func aliasCount(c *lruCache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.aliases)
}

// checkCache verifies the cache's bookkeeping: the recency list, the
// key and alias maps and the byte estimate agree, and there is at most
// one alias per entry.
func checkCache(t testing.TB, c *lruCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n, aliases, bytes := 0, 0, int64(0)
	var prev *lruEntry
	for e := c.head; e != nil; prev, e = e, e.next {
		if e.prev != prev {
			t.Fatalf("entry %q: broken back link", e.key)
		}
		if c.items[e.key] != e {
			t.Errorf("entry %q on the list but not in the key map", e.key)
		}
		if a := e.alias(); a != "" {
			aliases++
			if c.aliases[a] != e {
				t.Errorf("entry %q: its alias maps elsewhere", e.key)
			}
		}
		n++
		bytes += e.cost()
	}
	if prev != c.tail {
		t.Error("tail is not the last entry")
	}
	if n != len(c.items) || aliases != len(c.aliases) {
		t.Errorf("%d listed, %d keyed; %d aliases held, %d mapped", n, len(c.items), aliases, len(c.aliases))
	}
	if bytes != c.bytes {
		t.Errorf("resident bytes %d, entries cost %d", c.bytes, bytes)
	}
}

// TestHitBytesEqualMissBytes: for every kind, the first hit (decoded)
// and the alias hit answer byte for byte what the miss answered —
// status, headers and body — whether the entry was filled by the point
// query itself, by a sweep cell or by a warm start.
func TestHitBytesEqualMissBytes(t *testing.T) {
	qs := hitQueries(t)
	dir := t.TempDir()
	s1, err := Open(Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	miss := make([]*httptest.ResponseRecorder, len(qs))
	for i, q := range qs {
		if miss[i] = post(s1, q.path, q.body); miss[i].Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q.path, miss[i].Code, miss[i].Body)
		}
	}
	// hits sends every query twice (first hit, alias hit) and checks the
	// answers and the counters.
	hits := func(t *testing.T, s *Server, qs []hitQuery, miss []*httptest.ResponseRecorder) {
		before := s.Snapshot().Cache
		for i, q := range qs {
			sameResponse(t, q.path+" first hit", miss[i], post(s, q.path, q.body))
			sameResponse(t, q.path+" alias hit", miss[i], post(s, q.path, q.body))
		}
		after := s.Snapshot().Cache
		n := int64(len(qs))
		if after.Misses != before.Misses || after.Hits-before.Hits != 2*n || after.AliasHits-before.AliasHits != n {
			t.Errorf("cache %+v -> %+v, want %d hits of which %d by alias, no miss", before, after, 2*n, n)
		}
		checkCache(t, s.cache)
	}

	t.Run("point-filled", func(t *testing.T) { hits(t, s1, qs, miss) })
	s1.Close()

	t.Run("sweep-filled", func(t *testing.T) {
		s := newTestServer(t, Config{})
		var swept []hitQuery
		var want []*httptest.ResponseRecorder
		for i, q := range qs {
			if q.sweep == "" {
				continue
			}
			if w := post(s, "/v1/sweep", q.sweep); w.Code != http.StatusOK {
				t.Fatalf("sweep %s = %d: %s", q.sweep, w.Code, w.Body)
			}
			swept, want = append(swept, q), append(want, miss[i])
		}
		hits(t, s, swept, want)
	})

	t.Run("warm-start", func(t *testing.T) {
		s, err := Open(Config{PersistDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if got := s.WarmLoaded(); got != int64(len(qs)) {
			t.Fatalf("warm loaded %d entries, want %d", got, len(qs))
		}
		hits(t, s, qs, miss)
	})
}

// A body is stored once; a refresh links a new entry: the stored body
// of the old value is dropped (and uncharged), the alias carries over,
// and a late store on the dead entry records nothing.
func TestRefreshDropsStoredBody(t *testing.T) {
	c := newLRUCache(10, 1<<20)
	val := query.EvalResponse{Text: "answer"}
	alias := []byte("eval\n{}")
	c.add("k", val)
	e := c.entry("k")
	body := c.storeBody(e, encodeOK(e.val))
	if got := c.storeBody(e, []byte("other")); string(got) != string(body) || string(e.body()) != string(body) {
		t.Errorf("a second store replaced the body with %q", got)
	}
	c.claim(e, alias)
	before := c.residentBytes()

	c.add("k", val)
	e2 := c.entry("k")
	if e2 == e || e2.body() != nil {
		t.Fatalf("refresh kept the stored body (same entry %v, body %q)", e2 == e, e2.body())
	}
	if got, b := c.aliased(alias); got != e2 || b != nil {
		t.Errorf("alias after refresh names %p with body %q, want the new entry %p without one", got, b, e2)
	}
	if got, want := c.residentBytes(), before-int64(len(body)); got != want {
		t.Errorf("resident bytes %d after refresh, want %d", got, want)
	}
	if got := c.storeBody(e, body); string(got) != string(body) || e2.body() != nil {
		t.Error("a store on the dead entry reached the live one")
	}
	if c.claim(e, []byte("eval\n{ }")); aliasCount(c) != 1 {
		t.Errorf("a claim on the dead entry recorded an alias (%d held)", aliasCount(c))
	}

	// An entry with a body but no alias refreshes to one with neither.
	c.add("j", val)
	c.storeBody(c.entry("j"), body)
	c.add("j", val)
	if e := c.entry("j"); e.hot != nil {
		t.Errorf("refresh of an entry without alias kept %+v", *e.hot)
	}
	checkCache(t, c)
}

// Evicting an entry drops its alias; an entry holds one alias, so
// aliases never outnumber entries.
func TestAliasEviction(t *testing.T) {
	c := newLRUCache(2, 0)
	alias := func(i int) []byte { return []byte(fmt.Sprintf("eval\n{\"expr\":\"%dC1\"}", i)) }
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		c.add(key, query.EvalResponse{Text: key})
		c.claim(c.entry(key), alias(i))
		if aliasCount(c) > c.len() {
			t.Fatalf("after %d adds: %d aliases for %d entries", i+1, aliasCount(c), c.len())
		}
		checkCache(t, c)
	}
	for i := 0; i < 3; i++ {
		if e, _ := c.aliased(alias(i)); e != nil {
			t.Errorf("alias of evicted entry k%d still answers", i)
		}
	}
	if e, _ := c.aliased(alias(4)); e == nil || e.key != "k4" {
		t.Errorf("alias of live entry k4 lost")
	}
	// A second spelling replaces the first.
	e := c.entry("k4")
	c.claim(e, []byte("eval\n {}"))
	if old, _ := c.aliased(alias(4)); old != nil || aliasCount(c) != 2 {
		t.Errorf("replaced alias still answers (%d aliases)", aliasCount(c))
	}
	checkCache(t, c)

	// Through the server, with more queries than entries.
	s := newTestServer(t, Config{CacheEntries: 2})
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf(`{"expr":"%dC1"}`, i+2)
		for j := 0; j < 2; j++ {
			if w := post(s, "/v1/eval", body); w.Code != http.StatusOK {
				t.Fatalf("eval %s = %d", body, w.Code)
			}
		}
		if a, n := aliasCount(s.cache), s.cache.len(); a > n {
			t.Errorf("%d aliases for %d entries", a, n)
		}
	}
	checkCache(t, s.cache)
}

// The same bytes sent to two kinds never answer for each other.
func TestAliasKindsNeverCross(t *testing.T) {
	const body = `{"machine":"t3d"}` // a default plan; not an eval
	fresh := newTestServer(t, Config{})
	wantPlan, wantEval := post(fresh, "/v1/plan", body), post(fresh, "/v1/eval", body)
	if wantPlan.Code != http.StatusOK || wantEval.Code != http.StatusBadRequest {
		t.Fatalf("plan %d, eval %d; want 200 and 400", wantPlan.Code, wantEval.Code)
	}
	s := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		sameResponse(t, "plan", wantPlan, post(s, "/v1/plan", body))
		sameResponse(t, "eval with the plan's bytes", wantEval, post(s, "/v1/eval", body))
	}
	if got := s.Snapshot().Cache.AliasHits; got != 1 {
		t.Errorf("alias hits = %d, want 1 (the plan's third request)", got)
	}
}

// Alias hits are counted as a subset of hits and exported in both
// /metrics and /v1/stats.
func TestAliasHitsExported(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		post(s, "/v1/eval", `{"expr":"1C64"}`)
	}
	if st := s.Snapshot().Cache; st.Hits != 2 || st.AliasHits != 1 {
		t.Errorf("hits %d, alias hits %d; want 2 and 1", st.Hits, st.AliasHits)
	}
	if m := get(s, "/metrics").Body.String(); !strings.Contains(m, "\nctserved_cache_alias_hits_total 1\n") {
		t.Errorf("metrics missing the alias hit count:\n%s", m)
	}
	if st := get(s, "/v1/stats").Body.String(); !strings.Contains(st, `"alias_hits": 1,`) {
		t.Errorf("stats missing the alias hit count:\n%s", st)
	}
}

// Concurrent first hits on one entry, in two spellings, all answer the
// miss's bytes; the entry ends with one stored body and one alias and
// the byte estimate agrees with the entries (run with -race in CI).
func TestConcurrentFirstHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	spellings := []string{`{"machine":"t3d","op":"1Q64"}`, `{"op":"1Q64","machine":"t3d"}`}
	want := post(s, "/v1/eval", spellings[0])
	if want.Code != http.StatusOK {
		t.Fatalf("miss = %d", want.Code)
	}
	const n = 16
	start := make(chan struct{})
	got := make(chan *httptest.ResponseRecorder, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got <- post(s, "/v1/eval", spellings[g%2])
		}(g)
	}
	close(start)
	wg.Wait()
	close(got)
	for w := range got {
		sameResponse(t, "concurrent hit", want, w)
	}
	key := query.EvalRequest{Machine: "t3d", Op: "1Q64"}.Canon().Fingerprint()
	e := s.cache.entry(key)
	s.cache.mu.Lock()
	body, alias := string(e.body()), e.alias()
	s.cache.mu.Unlock()
	if body != want.Body.String() {
		t.Errorf("stored body differs from the miss's:\n%s", body)
	}
	if alias != "eval\n"+spellings[0] && alias != "eval\n"+spellings[1] {
		t.Errorf("alias %q names neither spelling", alias)
	}
	if st := s.Snapshot().Cache; st.Misses != 1 || st.Hits != n {
		t.Errorf("cache %+v, want 1 miss and %d hits", st, n)
	}
	checkCache(t, s.cache)
}

// FuzzPointHitBytes sends any body to any kind's endpoint twice, then
// once re-spelled with leading whitespace: all three answers must be
// identical in status, headers and bytes, and a 4xx must never create
// an alias.
func FuzzPointHitBytes(f *testing.F) {
	for i, q := range hitQueries(f) {
		if q.path != "/v1/fit" { // keep the seed corpus quick
			f.Add(uint8(i), q.body)
		}
	}
	for _, b := range []string{``, `{}`, `null`, `{"machine":"t3d"}`, `{"expr":"1C64"}garbage`,
		`{"expr":"1Z1"}`, `{"exprs":"1C1"}`, `{"expr":`, `[1,2]`, `"x"`, `{"n":-4,"p":8}`} {
		f.Add(uint8(0), b)
		f.Add(uint8(2), b)
	}
	kinds := query.Kinds()
	f.Fuzz(func(t *testing.T, kind uint8, body string) {
		path := "/v1/" + kinds[int(kind)%len(kinds)].Name
		s := New(Config{Workers: 2})
		defer s.Close()
		first := post(s, path, body)
		sameResponse(t, path+" repeat", first, post(s, path, body))
		sameResponse(t, path+" re-spelled", first, post(s, path, " "+body))
		if first.Code >= 400 && first.Code < 500 && aliasCount(s.cache) != 0 {
			t.Errorf("%s %q: a %d answer created an alias", path, body, first.Code)
		}
		checkCache(t, s.cache)
	})
}

// A body past the size bound reads as it always did: the decoder sees
// the bounded bytes and then the bound's error, so a value that ends
// inside the bound is still answered, while one that does not gets the
// oversized-body 400; neither creates an alias.
func TestOversizedBodyAnswers(t *testing.T) {
	s := newTestServer(t, Config{})
	pad := strings.Repeat(" ", maxBodyBytes)
	w := post(s, "/v1/eval", `{"expr":"1C64"}`+pad)
	if want := post(s, "/v1/eval", `{"expr":"1C64"}`); w.Code != http.StatusOK || w.Body.String() != want.Body.String() {
		t.Errorf("value inside the bound, padding past it = %d %s, want the plain answer", w.Code, w.Body)
	}
	w = post(s, "/v1/eval", `{"expr":"1C64"`+pad+`}`)
	const tooLarge = "{\n  \"error\": \"bad request: invalid JSON body: http: request body too large\"\n}\n"
	if w.Code != http.StatusBadRequest || w.Body.String() != tooLarge {
		t.Errorf("value past the bound = %d %q, want 400 %q", w.Code, w.Body, tooLarge)
	}
	if n := aliasCount(s.cache); n != 1 { // the plain answer's hit only
		t.Errorf("%d aliases, want 1", n)
	}
}

// A request already past its deadline fails even when its bytes name
// an entry by alias, as it does on the decoding path.
func TestExpiredContextFailsBeforeAliasHit(t *testing.T) {
	s := newTestServer(t, Config{})
	for i := 0; i < 2; i++ { // the miss, then the hit that records the alias
		post(s, "/v1/eval", `{"expr":"1C64"}`)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(`{"expr":"1C64"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != 499 {
		t.Errorf("code = %d, want 499 (body %s)", w.Code, w.Body)
	}
	if st := s.Snapshot().Cache; st.Hits != 1 || st.AliasHits != 0 {
		t.Errorf("hits %d, alias hits %d; want 1 and 0", st.Hits, st.AliasHits)
	}
}

// An alias hit (hash the raw body, look up its entry, write the stored
// bytes) arms no deadline: it allocates at most aliasHitAllocs times
// through the whole handler stack. Arming the request deadline and
// copying the request for it, as every request did before, costs 5
// more.
func TestAliasHitAllocations(t *testing.T) {
	const aliasHitAllocs = 3
	if raceEnabled {
		t.Skip("a -race build drops pooled body buffers at random")
	}
	s := newTestServer(t, Config{})
	body := `{"machine":"t3d","expr":"1C64"}`
	for i := 0; i < 2; i++ { // the miss, then the hit that records the alias
		post(s, "/v1/eval", body)
	}
	const runs = 200
	reqs := make([]*http.Request, runs+1)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body))
	}
	w := &responseRecorderLite{header: http.Header{}}
	i := 0
	h := s.Handler()
	n := testing.AllocsPerRun(runs, func() {
		clear(w.header)
		h.ServeHTTP(w, reqs[i])
		i++
	})
	if st := s.Snapshot().Cache; st.AliasHits != runs+1 || w.Code != http.StatusOK {
		t.Fatalf("alias hits %d, last code %d; want %d hits answered 200", st.AliasHits, w.Code, runs+1)
	}
	if n > aliasHitAllocs {
		t.Errorf("an alias hit allocates %v times, want at most %d", n, aliasHitAllocs)
	}
}
