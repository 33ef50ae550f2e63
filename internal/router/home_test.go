package router

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"testing"

	"ctcomm/internal/law"
	"ctcomm/internal/query"
	"ctcomm/internal/serve"
	"ctcomm/internal/sweep"
)

// lawSweeps are one-residue words-axis sweeps: every word count of a
// sweep is congruent modulo the laws' period (t3d's price periods
// divide 4096 and its collective periods 512), so each needs one law
// per transfer shape or collective plan.
var lawSweeps = []struct{ name, spec string }{
	{"price", `{"kind":"price","machines":["t3d"],"ops":["1Q64"],"styles":["chained"],
		"words":[32768,36864,40960,45056,49152,53248,57344,61440]}`},
	{"collective", `{"kind":"collective","machines":["t3d"],"collectives":["broadcast"],"node_counts":[16],
		"words":[1536,2560,3584,4608,5632,6656,7680,8704]}`},
}

// fitted sums the process-wide fitted-law count over every family.
func fitted() int64 {
	var n int64
	for _, c := range law.FitCounts() {
		n += c.Fitted
	}
	return n
}

// TestRoutedSweepFitsEachLawOnce pins law-affine routing: a routed
// one-residue sweep fits exactly the laws a lone ctserved fits for the
// same spec, not one set per replica, and its rows stay byte-identical.
// Fit counts are process-wide, so the fleet's and the lone server's
// deltas are taken one after the other.
func TestRoutedSweepFitsEachLawOnce(t *testing.T) {
	for _, sw := range lawSweeps {
		t.Run(sw.name, func(t *testing.T) {
			f := newFleet(t, 2, serve.Config{Workers: 2})
			rt := newRouter(t, Config{
				Replicas:      []string{"r0=" + f.urls[0], "r1=" + f.urls[1]},
				ProbeInterval: -1,
			})
			single := serve.New(serve.Config{Workers: 2})
			defer single.Close()

			// Fingerprint sharding would split this sweep over both
			// replicas, and both would fit its laws.
			var spec sweep.Spec
			if err := json.Unmarshal([]byte(sw.spec), &spec); err != nil {
				t.Fatal(err)
			}
			cells, err := sweep.Expand(spec)
			if err != nil {
				t.Fatal(err)
			}
			byPrint := map[string]bool{}
			for _, c := range cells {
				byPrint[rt.Home(c.Fingerprint())] = true
			}
			if len(byPrint) < 2 {
				t.Fatalf("the sweep's fingerprints all live on one replica; the test cannot tell home keys from fingerprints")
			}

			before := fitted()
			rw := post(rt.Handler(), "/v1/sweep", sw.spec)
			fleet := fitted() - before
			before = fitted()
			lone := post(single.Handler(), "/v1/sweep", sw.spec)
			alone := fitted() - before
			if rw.Code != http.StatusOK || lone.Code != http.StatusOK {
				t.Fatalf("router %d, single %d: %s", rw.Code, lone.Code, rw.Body)
			}
			if rw.Body.String() != lone.Body.String() {
				t.Errorf("routed sweep not byte-identical:\n--- router\n%s\n--- single\n%s", rw.Body, lone.Body)
			}
			if alone == 0 {
				t.Fatal("the lone server fitted no law; the sweep does not exercise laws")
			}
			if fleet != alone {
				t.Errorf("fleet fitted %d laws, a lone ctserved %d; want equal", fleet, alone)
			}
			served := 0
			for _, s := range f.servers {
				if s.Snapshot().Sweep.Cells > 0 {
					served++
				}
			}
			if served != 1 {
				t.Errorf("%d replicas served the one-residue sweep, want 1", served)
			}
		})
	}
}

// TestPointFollowsSweepCell: a point query routes by the same home key
// as the equal sweep cell, so after a routed sweep it is a cache hit on
// the replica that answered the cell, with no new miss in the fleet.
// The point is a cell whose fingerprint lives on the other replica, so
// routing it by fingerprint would miss.
func TestPointFollowsSweepCell(t *testing.T) {
	for _, sw := range lawSweeps {
		t.Run(sw.name, func(t *testing.T) {
			f := newFleet(t, 2, serve.Config{Workers: 2})
			rt := newRouter(t, Config{
				Replicas:      []string{"r0=" + f.urls[0], "r1=" + f.urls[1]},
				ProbeInterval: -1,
			})
			var spec sweep.Spec
			if err := json.Unmarshal([]byte(sw.spec), &spec); err != nil {
				t.Fatal(err)
			}
			cells, err := sweep.Expand(spec)
			if err != nil {
				t.Fatal(err)
			}
			var path string
			var body []byte
			for _, c := range cells {
				if rt.Home(c.Fingerprint()) == rt.Home(c.Home()) {
					continue
				}
				if c.Price != nil {
					path, body = "/v1/price", mustJSON(t, c.Price)
				} else {
					path, body = "/v1/collective", mustJSON(t, c.Collective)
				}
				break
			}
			if body == nil {
				t.Fatal("every cell's fingerprint lives on its home replica; the test cannot tell them apart")
			}
			if w := post(rt.Handler(), "/v1/sweep", sw.spec); w.Code != http.StatusOK {
				t.Fatalf("sweep = %d: %s", w.Code, w.Body)
			}
			counts := func() (hits, misses int64) {
				for _, s := range f.servers {
					st := s.Snapshot().Cache
					hits, misses = hits+st.Hits, misses+st.Misses
				}
				return hits, misses
			}
			h0, m0 := counts()
			if w := post(rt.Handler(), path, string(body)); w.Code != http.StatusOK {
				t.Fatalf("point %s = %d: %s", body, w.Code, w.Body)
			}
			h1, m1 := counts()
			if h1-h0 != 1 || m1 != m0 {
				t.Errorf("point %s after sweep: %d hits, %d misses; want 1 hit, 0 misses", body, h1-h0, m1-m0)
			}
		})
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplicaStatsSumToTotals: the per-replica proxied and cells
// counts in /v1/stats add up to the router's totals.
func TestReplicaStatsSumToTotals(t *testing.T) {
	f := newFleet(t, 3, serve.Config{Workers: 2})
	rt := newRouter(t, Config{Replicas: f.urls, ProbeInterval: -1})
	for _, q := range mixedBodies {
		if w := post(rt.Handler(), q.path, q.body); w.Code != http.StatusOK {
			t.Fatalf("%s = %d", q.path, w.Code)
		}
	}
	for _, spec := range []string{
		`{"kind":"eval","machines":["t3d","paragon"],"ops":["1Q64","1Q1","2Q32"]}`,
		`{"kind":"price","machines":["t3d"],"ops":["1Q64"],"styles":["chained"],"words":[8,16,24,32,40]}`,
	} {
		if w := post(rt.Handler(), "/v1/sweep", spec); w.Code != http.StatusOK {
			t.Fatalf("sweep = %d: %s", w.Code, w.Body)
		}
	}
	var st Stats
	if w := get(rt.Handler(), "/v1/stats"); json.Unmarshal(w.Body.Bytes(), &st) != nil {
		t.Fatalf("/v1/stats: %s", w.Body)
	}
	var proxied, cells int64
	for _, r := range st.Replicas {
		proxied += r.Proxied
		cells += r.Cells
	}
	if proxied != st.Proxied || cells != st.Cells {
		t.Errorf("replicas sum to %d proxied / %d cells; router totals %d / %d", proxied, cells, st.Proxied, st.Cells)
	}
	if st.Proxied != int64(len(mixedBodies)) || st.Cells != 11 {
		t.Errorf("router totals %d proxied / %d cells, want %d / 11", st.Proxied, st.Cells, len(mixedBodies))
	}
}

// TestRingHashIsFNV1a pins the inline ring hash to hash/fnv's 64-bit
// FNV-1a, so ring positions (and with them every replica's shard and
// persisted cache) stay where they were.
func TestRingHashIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "r0#0", "replica-1#63", "eval|t3d|paper|1C64||false|0|",
		"price|Cray T3D|1Q64|0", "http://127.0.0.1:8081#17"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := fingerprintHash(s), h.Sum64(); got != want {
			t.Errorf("fingerprintHash(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestPickAllocationFree: the ring lookup runs once per point query and
// once per sweep cell, and allocates nothing.
func TestPickAllocationFree(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"a=http://a", "b=http://b", "c=http://c"}, ProbeInterval: -1})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("price|Cray T3D|1Q64|%d", i)
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		if len(rt.pick(keys[i%len(keys)])) != 3 {
			t.Fatal("pick must walk all three replicas")
		}
		i++
	}); n != 0 {
		t.Errorf("pick allocates %v times per call, want 0", n)
	}
}

// TestPickMatchesRingWalk: every lookup returns the walk of a linear
// scan of the ring — the first virtual node at or past the key's hash
// (wrapping), then each further routable replica once, in ring order.
func TestPickMatchesRingWalk(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"a=http://a", "b=http://b", "c=http://c"}, ProbeInterval: -1})
	points := rt.ring.Load().points
	for i := 0; i < 500; i++ {
		key := query.EvalRequest{Expr: fmt.Sprintf("%dC1", i)}.Fingerprint()
		h := fingerprintHash(key)
		start := 0
		for start < len(points) && points[start].hash < h {
			start++
		}
		var want []string
		seen := map[int]bool{}
		for j := 0; j < len(points); j++ {
			p := points[(start+j)%len(points)]
			if !seen[p.idx] {
				seen[p.idx] = true
				want = append(want, rt.replicas[p.idx].name)
			}
		}
		var got []string
		for _, rep := range rt.pick(key) {
			got = append(got, rep.name)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("pick(%q) = %v, want %v", key, got, want)
		}
	}
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}
