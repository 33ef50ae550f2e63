package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

// TestWarmStartByteIdentical is the warm-start contract at the HTTP
// layer: answers served before a restart come back byte-identical from
// the reloaded snapshot, as cache hits, with warm_loaded accounting.
func TestWarmStartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	xe6, err := query.ResolveMachine("xe6")
	if err != nil {
		t.Fatal(err)
	}
	fitBody, err := json.Marshal(query.FitRequest{Base: "xe6", Rows: calibrate.Synthesize(xe6, nil)})
	if err != nil {
		t.Fatal(err)
	}
	queries := []struct{ path, body string }{
		{"/v1/eval", `{"machine":"t3d","expr":"1C64"}`},
		{"/v1/eval", `{"machine":"paragon","expr":"1C8"}`},
		{"/v1/price", `{"machine":"t3d","x":"1","y":"64","words":4096}`},
		{"/v1/plan", `{"machine":"t3d","n":1024,"p":8,"src":"BLOCK","dst":"CYCLIC"}`},
		{"/v1/collective", `{"machine":"t3d","collective":"all-to-all","words":1024}`},
		{"/v1/fit", string(fitBody)},
	}

	s1, err := Open(Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]string, len(queries))
	for i, q := range queries {
		w := post(s1, q.path, q.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", q.path, w.Code, w.Body)
		}
		cold[i] = w.Body.String()
	}
	s1.Close() // drains write-behind, compacts the final snapshot

	s2, err := Open(Config{PersistDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.WarmLoaded(); got != int64(len(queries)) {
		t.Fatalf("warm loaded %d entries, want %d", got, len(queries))
	}
	for i, q := range queries {
		w := post(s2, q.path, q.body)
		if w.Code != http.StatusOK {
			t.Fatalf("warm %s = %d: %s", q.path, w.Code, w.Body)
		}
		if w.Body.String() != cold[i] {
			t.Errorf("%s not byte-identical after restart:\n--- cold\n%s\n--- warm\n%s",
				q.path, cold[i], w.Body)
		}
	}
	snap := s2.Snapshot()
	if snap.Cache.Hits != int64(len(queries)) || snap.Cache.Misses != 0 {
		t.Errorf("warm replica recomputed: hits=%d misses=%d, want %d/0",
			snap.Cache.Hits, snap.Cache.Misses, len(queries))
	}
	if snap.Cache.WarmLoaded != int64(len(queries)) {
		t.Errorf("stats warm_loaded = %d, want %d", snap.Cache.WarmLoaded, len(queries))
	}
	if snap.Persist == nil || snap.Persist.Loaded != int64(len(queries)) {
		t.Errorf("stats persist = %+v, want loaded=%d", snap.Persist, len(queries))
	}
}

// TestCellsMatchesSweep pins /v1/cells (the router's shard transport)
// to /v1/sweep: the same cells, shipped explicitly, stream the same
// rows byte for byte in the given order.
func TestCellsMatchesSweep(t *testing.T) {
	spec := sweep.Spec{Kind: "eval", Machines: []string{"t3d", "paragon"}, Ops: []string{"1Q64", "wQw", "1C8"}}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{})
	sw := post(s, "/v1/sweep", string(specJSON))
	if sw.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", sw.Code, sw.Body)
	}

	cells, err := sweep.Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	cellsJSON, err := json.Marshal(sweep.CellsRequest{Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	// An independent server, so nothing is answered from a shared cache.
	s2 := newTestServer(t, Config{})
	cw := post(s2, "/v1/cells", string(cellsJSON))
	if cw.Code != http.StatusOK {
		t.Fatalf("cells = %d: %s", cw.Code, cw.Body)
	}
	swRows, swSum := parseNDJSON(t, sw.Body.String())
	cRows, cSum := parseNDJSON(t, cw.Body.String())
	if len(cRows) != len(swRows) || swSum.Cells != cSum.Cells || cSum.Failed != swSum.Failed {
		t.Fatalf("cells stream differs: %d rows (%+v), sweep %d rows (%+v)",
			len(cRows), cSum, len(swRows), swSum)
	}
	for i := range swRows {
		a, _ := json.Marshal(swRows[i])
		b, _ := json.Marshal(cRows[i])
		if string(a) != string(b) {
			t.Errorf("row %d differs:\nsweep %s\ncells %s", i, a, b)
		}
	}
}

// TestCellsRejectsBadShape pins the /v1/cells validation: empty lists
// and cells without exactly one request are 400s, not streams.
func TestCellsRejectsBadShape(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, body := range []string{
		`{"cells":[]}`,
		`{"cells":[{}]}`,
		`{"cells":[{"eval":{"machine":"t3d","expr":"1C1"},"price":{"machine":"t3d","x":"1","y":"1","words":8}}]}`,
	} {
		if w := post(s, "/v1/cells", body); w.Code != http.StatusBadRequest {
			t.Errorf("cells %s = %d, want 400", body, w.Code)
		}
	}
}

// TestHealthzNegotiation: old probes keep the plain "ok" line; JSON
// clients get the structured body, which flips with the drain flag.
func TestHealthzNegotiation(t *testing.T) {
	s := newTestServer(t, Config{})
	if w := get(s, "/healthz"); w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "ok" {
		t.Fatalf("plain healthz = %d %q", w.Code, w.Body)
	}
	// Warm one entry so the gauges are nonzero.
	if w := post(s, "/v1/eval", `{"machine":"t3d","expr":"1C64"}`); w.Code != http.StatusOK {
		t.Fatalf("eval = %d", w.Code)
	}

	getJSON := func() Health {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		req.Header.Set("Accept", "application/json")
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("json healthz = %d: %s", w.Code, w.Body)
		}
		var h Health
		if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
			t.Fatalf("bad healthz JSON %q: %v", w.Body, err)
		}
		return h
	}
	h := getJSON()
	if h.Status != "ok" || h.Draining || h.CacheEntries != 1 || h.CacheBytes <= 0 {
		t.Fatalf("health = %+v", h)
	}
	s.SetDraining(true)
	if h := getJSON(); h.Status != "draining" || !h.Draining {
		t.Fatalf("draining health = %+v", h)
	}
	s.SetDraining(false)
}
