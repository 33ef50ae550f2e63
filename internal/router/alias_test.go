package router

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"
	"strings"
	"testing"

	"ctcomm/internal/query"
	"ctcomm/internal/serve"
)

// aliased reports whether the router holds an alias for body sent to
// kind's endpoint.
func aliased(rt *Router, kind, body string) bool {
	_, ok := rt.aliases.Get(maphash.String(rt.aliasSeed, kind+"\n"+body))
	return ok
}

// TestAliasHits: a repeated body is routed by the alias map and counted
// in alias_hits, a subset of proxied; a body that fails to decode gets
// its 400 every time and never creates an alias; and an alias, which
// holds a ring position rather than a replica, keeps routing after the
// ring is rebuilt around a dead replica.
func TestAliasHits(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1})
	rt := newRouter(t, Config{
		Replicas:      []string{"r0=" + f.urls[0], "r1=" + f.urls[1]},
		ProbeInterval: -1,
	})
	bodies := make([]string, 20) // enough fingerprints to reach both replicas
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"machine":"t3d","expr":"%dC1"}`, i+2)
	}
	for round := 0; round < 2; round++ {
		for _, b := range bodies {
			if w := post(rt.Handler(), "/v1/eval", b); w.Code != http.StatusOK {
				t.Fatalf("eval %s = %d: %s", b, w.Code, w.Body)
			}
		}
	}
	if st := rt.Snapshot(); st.Proxied != 40 || st.AliasHits != 20 {
		t.Errorf("proxied %d, alias hits %d; want 40 and 20", st.Proxied, st.AliasHits)
	}
	for _, b := range bodies {
		if !aliased(rt, "eval", b) {
			t.Errorf("no alias for %s", b)
		}
	}

	for _, b := range []string{`{"bogus":1}`, `not json`, `{"expr":`, ``} {
		for i := 0; i < 2; i++ {
			if w := post(rt.Handler(), "/v1/eval", b); w.Code != http.StatusBadRequest {
				t.Errorf("eval %q = %d, want 400", b, w.Code)
			}
		}
		if aliased(rt, "eval", b) {
			t.Errorf("%q failed to decode but has an alias", b)
		}
	}

	// Kill r0: every alias whose position r0 owned now fails over to r1,
	// and after the ring is rebuilt routes to r1 directly; all of them
	// are still alias hits.
	f.https[0].Close()
	hits := rt.Snapshot().AliasHits
	for round := 0; round < 2; round++ {
		for _, b := range bodies {
			if w := post(rt.Handler(), "/v1/eval", b); w.Code != http.StatusOK {
				t.Fatalf("eval %s with a dead replica = %d: %s", b, w.Code, w.Body)
			}
		}
	}
	st := rt.Snapshot()
	if st.Ejections == 0 || st.Failovers == 0 {
		t.Errorf("stats = %+v, want the dead replica failed over and ejected", st)
	}
	if got := st.AliasHits - hits; got != 40 {
		t.Errorf("%d alias hits across the ring rebuild, want 40", got)
	}
	if sum := st.Replicas[0].Proxied + st.Replicas[1].Proxied; sum != st.Proxied {
		t.Errorf("replica proxied counts sum to %d, want %d", sum, st.Proxied)
	}
}

// TestAliasCollisionChangesOnlyPlacement: an alias that names the wrong
// ring position, as a 64-bit hash collision would, sends the body to
// another replica, and that replica validates and answers the body
// itself, so the answer is byte-identical to a lone ctserved's.
func TestAliasCollisionChangesOnlyPlacement(t *testing.T) {
	f := newFleet(t, 2, serve.Config{Workers: 1})
	rt := newRouter(t, Config{
		Replicas:      []string{"r0=" + f.urls[0], "r1=" + f.urls[1]},
		ProbeInterval: -1,
	})
	single := serve.New(serve.Config{Workers: 1})
	defer single.Close()
	eval := query.Lookup("eval")
	home := func(body string) *replica {
		req, err := eval.Decode(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return rt.pick(eval.Home(req))[0]
	}
	victim := `{"machine":"paragon","expr":"1C64"}`
	var other string
	for i := 2; other == ""; i++ {
		if b := fmt.Sprintf(`{"machine":"t3d","expr":"%dC1"}`, i); home(b) != home(victim) {
			other = b
		}
	}
	req, _ := eval.Decode(strings.NewReader(other))
	rt.aliases.Put(maphash.String(rt.aliasSeed, "eval\n"+victim), fingerprintHash(eval.Home(req)))

	for _, q := range append([]struct{ path, body string }{{"/v1/eval", victim}}, mixedBodies...) {
		rw := post(rt.Handler(), q.path, q.body)
		sw := post(single.Handler(), q.path, q.body)
		if rw.Code != sw.Code || rw.Header().Get("Content-Type") != sw.Header().Get("Content-Type") || rw.Body.String() != sw.Body.String() {
			t.Errorf("%s %s: router %d %s, single %d %s", q.path, q.body, rw.Code, rw.Body, sw.Code, sw.Body)
		}
		if q.body != victim {
			continue
		}
		// The colliding body was computed where its alias points.
		for i, s := range f.servers {
			if got, want := s.Snapshot().Cache.Misses, rt.replicas[i] == home(other); (got == 1) != want {
				t.Errorf("replica %s computed %d queries; the alias points at %s", rt.replicas[i].name, got, home(other).name)
			}
		}
	}
	if st := rt.Snapshot(); st.AliasHits != 1 {
		t.Errorf("alias hits = %d, want 1 (the colliding body)", st.AliasHits)
	}
}

// TestAliasLookupAllocationFree: routing a repeated body (hash it, look
// up its ring position, walk the ring) allocates nothing.
func TestAliasLookupAllocationFree(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"a=http://a", "b=http://b", "c=http://c"}, ProbeInterval: -1})
	raw := []byte("eval\n" + `{"machine":"t3d","expr":"1C64"}`)
	rt.aliases.Put(maphash.Bytes(rt.aliasSeed, raw), fingerprintHash("eval|t3d"))
	if n := testing.AllocsPerRun(1000, func() {
		pos, ok := rt.aliases.Get(maphash.Bytes(rt.aliasSeed, raw))
		if !ok || len(rt.walk(pos)) != 3 {
			t.Fatal("alias lookup must find the position and walk all three replicas")
		}
	}); n != 0 {
		t.Errorf("alias lookup allocates %v times per call, want 0", n)
	}
}

// TestSpliceIndex: the merge rewrites exactly a row's leading index and
// copies the rest of the replica's bytes; a line that does not open
// with the index it decoded to is refused.
func TestSpliceIndex(t *testing.T) {
	for _, c := range []struct {
		line     string
		from, to int
		want     string
	}{
		{`{"index":0,"cached":true,"eval":{"mbps":1}}` + "\n", 0, 17, `{"index":17,"cached":true,"eval":{"mbps":1}}` + "\n"},
		{`{"index":12,"error":"x"}` + "\n", 12, 3, `{"index":3,"error":"x"}` + "\n"},
		{`{"index":7}`, 7, 7, `{"index":7}`},
		{`{"index":12}`, 1, 5, ""},
		{`{"index":1}`, 12, 5, ""},
		{`{"done":true,"cells":1}`, 0, 5, ""},
		{` {"index":0}`, 0, 5, ""},
	} {
		got, ok := spliceIndex(nil, []byte(c.line), c.from, c.to)
		if ok != (c.want != "") || ok && string(got) != c.want {
			t.Errorf("spliceIndex(%q, %d, %d) = %q, %v; want %q", c.line, c.from, c.to, got, ok, c.want)
		}
	}
}

// TestSpliceIndexAllocationFree: once its buffer is warm, splicing a
// row allocates nothing.
func TestSpliceIndexAllocationFree(t *testing.T) {
	line := []byte(`{"index":3,"analytic":true,"price_request":{"machine":"t3d","words":4096},"price":{"mbps":12.5}}` + "\n")
	buf, _ := spliceIndex(nil, line, 3, 1000)
	g := 0
	if n := testing.AllocsPerRun(1000, func() {
		var ok bool
		if buf, ok = spliceIndex(buf, line, 3, g%1000); !ok || !bytes.HasSuffix(buf, line[len(`{"index":3`):]) {
			t.Fatal("splice lost the row")
		}
		g++
	}); n != 0 {
		t.Errorf("spliceIndex allocates %v times per row, want 0", n)
	}
}

// FuzzRoutedPointBytes sends any body to any kind's endpoint twice
// through the router and once to a lone ctserved: status, Content-Type,
// Retry-After and bytes must be identical, no answer may be a 5xx, and a
// body that fails to decode must never create an alias.
func FuzzRoutedPointBytes(f *testing.F) {
	for i, q := range mixedBodies {
		f.Add(uint8(i), q.body)
	}
	for _, b := range []string{``, `{}`, `null`, `{"machine":"t3d"}`, `{"expr":"1C64"}garbage`,
		`{"expr":"1Z1"}`, `{"exprs":"1C1"}`, `{"expr":`, `[1,2]`, `"x"`, `{"n":-4,"p":8}`} {
		for kind := range query.Kinds() {
			if query.Kinds()[kind].Name != "fit" { // keep the seed corpus quick
				f.Add(uint8(kind), b)
			}
		}
	}
	fl := newFleet(f, 2, serve.Config{Workers: 2})
	rt := newRouter(f, Config{Replicas: []string{"r0=" + fl.urls[0], "r1=" + fl.urls[1]}, ProbeInterval: -1})
	single := serve.New(serve.Config{Workers: 2})
	f.Cleanup(single.Close)
	kinds := query.Kinds()
	f.Fuzz(func(t *testing.T, kind uint8, body string) {
		k := kinds[int(kind)%len(kinds)]
		path := "/v1/" + k.Name
		_, decodeErr := k.Decode(strings.NewReader(body))
		want := post(single.Handler(), path, body)
		if want.Code >= 500 {
			t.Fatalf("%s %q: lone ctserved answered %d, a server fault, to client input: %s", path, body, want.Code, want.Body)
		}
		for i := 0; i < 2; i++ {
			got := post(rt.Handler(), path, body)
			if got.Code != want.Code || got.Body.String() != want.Body.String() ||
				got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
				got.Header().Get("Retry-After") != want.Header().Get("Retry-After") {
				t.Fatalf("%s %q, routed try %d: %d %v\n%s\n--- lone ctserved: %d %v\n%s",
					path, body, i, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
			}
		}
		if decodeErr != nil && aliased(rt, k.Name, body) {
			t.Errorf("%s %q failed to decode (%v) but created an alias", path, body, decodeErr)
		}
		if decodeErr == nil && !aliased(rt, k.Name, body) {
			t.Errorf("%s %q decoded but has no alias", path, body)
		}
	})
}
