package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// mixedBodies is a repeated-query workload across all three POST
// endpoints: a handful of unique queries, as a planning loop that
// reconsiders the same redistributions over and over would issue.
var mixedBodies = []struct{ path, body string }{
	{"/v1/eval", `{"machine":"t3d","expr":"1C64"}`},
	{"/v1/eval", `{"machine":"t3d","op":"1Q64"}`},
	{"/v1/eval", `{"machine":"paragon","op":"wQw","congestion":4}`},
	{"/v1/price", `{"machine":"t3d","style":"chained","x":"1","y":"64","words":4096}`},
	{"/v1/plan", `{"machine":"t3d","n":1024,"p":8,"src":"BLOCK","dst":"CYCLIC"}`},
	{"/v1/plan", `{"machine":"paragon","n":1024,"p":8,"src":"BLOCK","dst":"CYCLIC(4)"}`},
}

// TestConcurrentMixedLoad drives the acceptance workload: >= 8
// goroutines issuing mixed repeated queries concurrently (under -race
// in CI), requiring a >= 90% cache hit rate and zero failures.
func TestConcurrentMixedLoad(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	const goroutines = 8
	const perG = 60

	var wg sync.WaitGroup
	errs := make(chan string, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q := mixedBodies[(g+i)%len(mixedBodies)]
				if w := post(s, q.path, q.body); w.Code != http.StatusOK {
					errs <- fmt.Sprintf("%s %s -> %d %s", q.path, q.body, w.Code, w.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("request failed under load: %s", e)
	}

	st := s.Snapshot()
	total := st.Cache.Hits + st.Cache.Misses + st.Cache.Collapsed
	if total != goroutines*perG {
		t.Fatalf("accounted %d cache lookups, want %d", total, goroutines*perG)
	}
	served := st.Cache.Hits + st.Cache.Collapsed
	hitRate := float64(served) / float64(total)
	t.Logf("cache: %d hits, %d collapsed, %d misses (hit rate %.1f%%)",
		st.Cache.Hits, st.Cache.Collapsed, st.Cache.Misses, 100*hitRate)
	if hitRate < 0.9 {
		t.Errorf("hit rate %.1f%% < 90%% on a repeated-query workload", 100*hitRate)
	}
	if st.Cache.Misses > int64(len(mixedBodies)) {
		t.Errorf("%d misses for %d unique queries", st.Cache.Misses, len(mixedBodies))
	}
}

// TestColdWarmLatency checks the acceptance bound: a cold /v1/eval
// (parse + evaluate + cache fill) must keep its median within 10x the
// warm (cache hit) median. Each warm request spells the cached query
// differently (varied whitespace), so no warm request repeats bytes an
// earlier one sent: every one pays the strict decode and the
// fingerprint, as the cold path does, and the two paths differ only in
// the evaluation and cache fill. The bound holds with a wide margin
// unless the cold path regresses badly.
func TestColdWarmLatency(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	const samples = 101

	measure := func(body func(i int) string) []time.Duration {
		ds := make([]time.Duration, samples)
		for i := 0; i < samples; i++ {
			b := body(i)
			start := time.Now()
			if w := post(s, "/v1/eval", b); w.Code != http.StatusOK {
				t.Fatalf("eval %s -> %d %s", b, w.Code, w.Body.String())
			}
			ds[i] = time.Since(start)
		}
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		return ds
	}

	// Warm: one query, cached after the first request, then sent in
	// samples distinct but equivalent spellings.
	post(s, "/v1/eval", `{"expr":"1C64"}`)
	warm := measure(func(i int) string {
		return fmt.Sprintf(`{%s"expr":%s"1C64"}`, strings.Repeat(" ", i%10+1), strings.Repeat("\n", i/10))
	})
	// Cold: a fresh stride per request, so every query is a miss.
	cold := measure(func(i int) string { return fmt.Sprintf(`{"expr":"%dC1"}`, i+2) })

	warmP50, coldP50 := warm[samples/2], cold[samples/2]
	t.Logf("warm p50 %v, cold p50 %v (%.1fx)", warmP50, coldP50, float64(coldP50)/float64(warmP50))
	st := s.Snapshot()
	if st.Cache.Misses != samples+1 { // the cold strides plus the warm fill
		t.Errorf("misses = %d, want %d (cold queries must not hit)", st.Cache.Misses, samples+1)
	}
	if st.Cache.AliasHits != 0 {
		t.Errorf("alias hits = %d, want 0 (every warm spelling must be decoded)", st.Cache.AliasHits)
	}
	if coldP50 > 10*warmP50 {
		t.Errorf("cold p50 %v > 10x warm p50 %v", coldP50, warmP50)
	}
}

// BenchmarkServeMixed drives the steady-state (cache-hot) mixed
// workload through the full HTTP handler stack.
func BenchmarkServeMixed(b *testing.B) {
	s := New(Config{Workers: 4})
	defer s.Close()
	for _, q := range mixedBodies { // warm every entry
		if w := post(s, q.path, q.body); w.Code != http.StatusOK {
			b.Fatalf("warmup %s -> %d", q.path, w.Code)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := mixedBodies[i%len(mixedBodies)]
			i++
			if w := post(s, q.path, q.body); w.Code != http.StatusOK {
				b.Fatalf("%s -> %d", q.path, w.Code)
			}
		}
	})
}

// BenchmarkServeEvalCold prices the cold path: every request is a new
// expression (stride-swept), so each one parses and evaluates.
func BenchmarkServeEvalCold(b *testing.B) {
	s := New(Config{Workers: 4, CacheEntries: 1}) // defeat the cache
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"expr":"%dC1"}`, i%10000+2)
		if w := post(s, "/v1/eval", body); w.Code != http.StatusOK {
			b.Fatalf("eval -> %d", w.Code)
		}
	}
}
