// Package router is the scale-out gateway in front of a fleet of
// ctserved replicas. It computes each request's home key — the
// routing key the query.Kind table defines (Kind.Home) — and
// consistent-hashes it across the fleet, so every query has one home
// replica. For eval, plan and fit the home key is the canonical
// fingerprint the replicas use as a cache key, so each replica's cache
// (and persistent snapshot) holds a disjoint shard of the keyspace
// instead of N copies of the hot set. For price and collective it
// names only what the batch sessions' word-count laws depend on
// (machine, shape or collective, and the word count modulo the laws'
// period), so all the cells of a sweep that need one law go to one
// replica and the fleet fits each law once; a point query follows the
// same key to the replica that cached the equal sweep cell. A shape
// with no law keeps its fingerprint, so engine-bound work still
// spreads.
//
// A repeated point body skips even the decode: a bounded alias map
// keyed by a hash of the kind and the raw body holds the ring position
// of the body's home key, and the router forwards the original bytes
// to whichever replica owns that position now. A hash collision could
// only send a body to another key's replica, which validates and
// answers the bytes itself, so it changes where an answer is computed,
// never what it is.
//
// The determinism contract makes this safe and makes it invisible:
// every answer is a pure function of its fingerprint, so WHICH replica
// answers cannot change WHAT is answered. Golden tests pin the
// router's responses byte-identical to a single ctserved and to the
// CLIs.
//
// Endpoints mirror ctserved: every query kind's /v1/<kind> endpoint is
// proxied whole to the home key's replica (with failover to ring
// successors on transport errors); /v1/sweep is expanded locally,
// fanned out by cell home key via each replica's /v1/cells, and
// re-merged into one NDJSON stream in global cell order, each replica
// row copied as bytes with only its index rewritten. /healthz and
// /v1/stats describe the router and its view of the fleet, with the
// point queries and sweep cells each replica was sent, so skew from
// home-key sharding is visible.
//
// Replica health: a background loop probes GET /healthz (JSON form) on
// every replica. A replica is routable when its probe succeeds and it
// is not draining; EjectAfter consecutive failures removes it from the
// ring until a probe succeeds again, and a draining replica (shutdown
// announced, in-flight work finishing) is removed immediately —
// drain-aware removal composing with ctserved's two-phase shutdown.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctcomm/internal/memo"
	"ctcomm/internal/query"
	"ctcomm/internal/serve"
)

// maxBodyBytes bounds a proxied request body, matching ctserved.
const maxBodyBytes = 1 << 20

// streamTimeout bounds one shard stream, from its request to its last
// row; a stream re-opened on a successor gets a fresh bound.
const streamTimeout = 60 * time.Second

// Config parameterizes a Router.
type Config struct {
	// Replicas are the ctserved base URLs (e.g. "http://127.0.0.1:8081"),
	// optionally prefixed with a stable ring identity as "name=url"
	// (e.g. "replica-0=http://127.0.0.1:8081"). The ring hashes the
	// NAME, so a replica that restarts on a different port keeps its
	// keyspace shard — and its persistent cache stays the right shard.
	// Without a name the URL itself is the identity.
	Replicas []string
	// VNodes is the number of virtual nodes per replica on the hash ring
	// (default 64). More vnodes smooth the key distribution.
	VNodes int
	// ProbeInterval is the health-check period (default 2s). Negative
	// disables probing: replicas then change state only via per-request
	// transport failures.
	ProbeInterval time.Duration
	// EjectAfter is the number of consecutive probe failures that ejects
	// a replica from the ring (default 2).
	EjectAfter int
	// RequestTimeout bounds one proxied point query (default 30s).
	RequestTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// replica is one backend and the router's view of its health.
type replica struct {
	name string // stable ring identity
	base string // request base URL

	healthy  atomic.Bool
	draining atomic.Bool
	// consecFails is touched only by the probe loop.
	consecFails int
	// last is the most recent JSON health body (zero until a probe
	// succeeds); guarded by lastMu.
	lastMu sync.Mutex
	last   serve.Health

	proxied atomic.Int64 // point queries this replica answered
	cells   atomic.Int64 // sweep cells whose home this replica was
}

func (r *replica) routable() bool {
	return r.healthy.Load() && !r.draining.Load()
}

// ringPoint is one virtual node: a hash position owned by a replica.
type ringPoint struct {
	hash uint64
	idx  int // index into Router.replicas
}

// ring is the virtual-node ring of the routable replicas, sorted by
// hash, with each point's ring walk precomputed: walks[i] lists the
// distinct replicas met from point i on, home first. Lookups share
// these slices read-only, so a lookup allocates nothing; the walks
// hold vnodes × replicas² pointers (16K for 16 replicas at 64 vnodes).
type ring struct {
	points []ringPoint
	walks  [][]*replica
	member []bool // by replica index: on the ring
}

// Router is the gateway. Create with New, mount Handler, Close to stop
// the probe loop.
type Router struct {
	cfg      Config
	mux      *http.ServeMux
	replicas []*replica

	// ring holds the virtual nodes of all ROUTABLE replicas; rebuilt
	// whenever a replica's routability changes.
	ring atomic.Pointer[ring]

	stats routerMetrics

	// aliases maps a hash of a point request's kind and raw body
	// (aliasSeed) to the ring hash of its home key, so a repeated body
	// is routed without decoding it.
	aliases   memo.Table[uint64, uint64]
	aliasSeed maphash.Seed

	stopOnce sync.Once
	stop     chan struct{}
	probed   sync.WaitGroup
}

// routerMetrics counts the router's own traffic.
type routerMetrics struct {
	proxied   atomic.Int64 // point queries forwarded
	aliasHits atomic.Int64 // of those, routed by the alias map without a decode
	failovers atomic.Int64 // point queries retried on a ring successor
	sweeps    atomic.Int64 // sweeps fanned out
	cells     atomic.Int64 // sweep cells routed
	shardHops atomic.Int64 // shard streams moved to a successor mid-sweep
	ejections atomic.Int64 // replicas removed from the ring by probes
	rejected  atomic.Int64 // requests failed with no routable replica
}

// New builds a router over the configured replicas (all initially
// routable, so traffic flows before the first probe round) and starts
// the probe loop.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("router: no replicas configured")
	}
	rt := &Router{cfg: cfg, mux: http.NewServeMux(), stop: make(chan struct{}), aliasSeed: maphash.MakeSeed()}
	seen := map[string]bool{}
	for _, spec := range cfg.Replicas {
		name, base := splitReplica(spec)
		if base == "" || seen[name] {
			return nil, fmt.Errorf("router: empty or duplicate replica %q", spec)
		}
		seen[name] = true
		rep := &replica{name: name, base: base}
		rep.healthy.Store(true)
		rt.replicas = append(rt.replicas, rep)
	}
	rt.rebuildRing()
	rt.routes()
	if cfg.ProbeInterval > 0 {
		rt.probed.Add(1)
		go rt.probeLoop()
	}
	return rt, nil
}

// splitReplica parses one Config.Replicas entry: "name=url" or "url".
// URLs contain "://", so a '=' BEFORE the scheme separator is a name
// prefix, never part of the URL.
func splitReplica(spec string) (name, base string) {
	spec = strings.TrimSpace(spec)
	if eq := strings.Index(spec, "="); eq >= 0 {
		if sep := strings.Index(spec, "://"); sep < 0 || eq < sep {
			name = strings.TrimSpace(spec[:eq])
			base = strings.TrimRight(strings.TrimSpace(spec[eq+1:]), "/")
			if name == "" {
				name = base
			}
			return name, base
		}
	}
	base = strings.TrimRight(spec, "/")
	return base, base
}

// Handler returns the root HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Close stops the probe loop.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.probed.Wait()
}

func (rt *Router) routes() {
	for _, k := range query.Kinds() {
		rt.mux.HandleFunc("/v1/"+k.Name, rt.handlePoint(k))
	}
	rt.mux.HandleFunc("/v1/sweep", rt.handleSweep)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/v1/stats", rt.handleStats)
}

// --- Consistent hashing ------------------------------------------------

// FNV-1a, 64-bit (hash/fnv's New64a), computed inline so hashing a
// key allocates nothing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fingerprintHash positions a home key (or virtual node) on the ring.
func fingerprintHash(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// rebuildRing recomputes the virtual-node ring from routable replicas.
func (rt *Router) rebuildRing() {
	r := &ring{member: make([]bool, len(rt.replicas))}
	routable := 0
	for idx, rep := range rt.replicas {
		if !rep.routable() {
			continue
		}
		r.member[idx] = true
		routable++
		for v := 0; v < rt.cfg.VNodes; v++ {
			r.points = append(r.points, ringPoint{fingerprintHash(fmt.Sprintf("%s#%d", rep.name, v)), idx})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	r.walks = make([][]*replica, len(r.points))
	for i := range r.points {
		seen := make([]bool, len(rt.replicas))
		for j := 0; len(r.walks[i]) < routable; j++ {
			p := r.points[(i+j)%len(r.points)]
			if !seen[p.idx] {
				seen[p.idx] = true
				r.walks[i] = append(r.walks[i], rt.replicas[p.idx])
			}
		}
	}
	rt.ring.Store(r)
}

// pick returns the distinct routable replicas for a home key in ring
// order: the home replica first, then its failover successors. The
// slice is shared; callers must not modify it.
func (rt *Router) pick(key string) []*replica {
	return rt.walk(fingerprintHash(key))
}

// walk returns pick's replicas for the ring position h of a home key,
// on the current ring.
func (rt *Router) walk(h uint64) []*replica {
	r := rt.ring.Load()
	if len(r.points) == 0 {
		return nil
	}
	// The first point at or past h, wrapping to 0 past the last.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return r.walks[lo%len(r.points)]
}

// Home returns the name of the replica that currently owns a home key
// (query.Kind.Home; for eval, plan and fit, the fingerprint), or ""
// when no replica is routable. It exists for shard introspection:
// capacity planning and the load test use it to reason about how a
// workload spreads over the ring.
func (rt *Router) Home(key string) string {
	if reps := rt.pick(key); len(reps) > 0 {
		return reps[0].name
	}
	return ""
}

// --- Health probing ----------------------------------------------------

func (rt *Router) probeLoop() {
	defer rt.probed.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll checks every replica once and rebuilds the ring on change.
func (rt *Router) probeAll() {
	changed := false
	for _, rep := range rt.replicas {
		wasRoutable := rep.routable()
		h, err := rt.probe(rep)
		if err != nil {
			rep.consecFails++
			if rep.consecFails >= rt.cfg.EjectAfter && rep.healthy.Load() {
				rep.healthy.Store(false)
				rt.stats.ejections.Add(1)
			}
		} else {
			rep.consecFails = 0
			rep.healthy.Store(true)
			rep.draining.Store(h.Draining)
			rep.lastMu.Lock()
			rep.last = h
			rep.lastMu.Unlock()
		}
		if rep.routable() != wasRoutable {
			changed = true
		}
	}
	if changed {
		rt.rebuildRing()
	}
}

// probe performs one JSON health check.
func (rt *Router) probe(rep *replica) (serve.Health, error) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base+"/healthz", nil)
	if err != nil {
		return serve.Health{}, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return serve.Health{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Health{}, fmt.Errorf("healthz: %s", resp.Status)
	}
	var h serve.Health
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBodyBytes)).Decode(&h); err != nil {
		return serve.Health{}, err
	}
	return h, nil
}

// markDown records a per-request transport failure immediately, without
// waiting for the probe loop, so one dead replica costs one failover,
// not EjectAfter probe periods of retries.
func (rt *Router) markDown(rep *replica) {
	if rep.healthy.Swap(false) {
		rt.stats.ejections.Add(1)
		rt.rebuildRing()
	}
}

// --- Point-query proxying ----------------------------------------------

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handlePoint proxies one point query to its home key's replica,
// failing over to ring successors on transport errors. The
// replica's response — status, content type and body — passes through
// verbatim, preserving byte identity with a direct ctserved query.
//
// The body is read into a pooled buffer behind the kind's name, and
// that whole buffer is hashed into the alias map. A hit gives the ring
// position of the body's home key with no JSON work; a miss decodes
// the body strictly, only to compute its home key, and stores the
// position, so a body that fails to decode never creates an alias and
// keeps its 400. Either way the ORIGINAL bytes are forwarded: the
// replica applies its own strict validation and the router cannot skew
// a request in transit. The map holds positions, not replicas, so an
// alias follows the current ring through ejection and failover.
func (rt *Router) handlePoint(k *query.Kind) http.HandlerFunc {
	prefix, path := k.Name+"\n", "/v1/"+k.Name
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST required"})
			return
		}
		buf, err := serve.ReadBody(w, r, prefix)
		if err != nil {
			serve.PutBody(buf)
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("reading body: %v", err)})
			return
		}
		body, alias := buf.Bytes()[len(prefix):], maphash.Bytes(rt.aliasSeed, buf.Bytes())
		pos, hit := rt.aliases.Get(alias)
		if !hit {
			req, err := k.Decode(bytes.NewReader(body))
			if err != nil {
				serve.PutBody(buf)
				writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
				return
			}
			pos = fingerprintHash(k.Home(req))
			rt.aliases.Put(alias, pos)
		}
		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
		defer cancel()
		resp, rep, retried, err := rt.forward(ctx, pos, path, body)
		if err != nil {
			// A failed round trip may still read its body after it
			// returns, so buf goes to the collector, not the pool.
			rt.stats.rejected.Add(1)
			writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
			return
		}
		if !retried {
			defer serve.PutBody(buf) // runs after the response body is closed
		}
		defer resp.Body.Close()
		for _, hdr := range []string{"Content-Type", "Retry-After"} {
			if v := resp.Header.Get(hdr); v != "" {
				w.Header().Set(hdr, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
		rt.stats.proxied.Add(1)
		if hit {
			rt.stats.aliasHits.Add(1)
		}
		rep.proxied.Add(1)
	}
}

// forward posts body to path on the replica that owns ring position
// pos, then on each ring successor after a transport failure, and
// returns the response with the replica that gave it; retried reports
// that an earlier replica failed first. HTTP-level errors (4xx/5xx)
// are NOT failed over: they are the home replica's answer.
func (rt *Router) forward(ctx context.Context, pos uint64, path string, body []byte) (*http.Response, *replica, bool, error) {
	cands := rt.walk(pos)
	if len(cands) == 0 {
		return nil, nil, false, errors.New("router: no routable replicas")
	}
	var lastErr error
	for i, rep := range cands {
		if i > 0 {
			rt.stats.failovers.Add(1)
		}
		resp, err := postJSON(ctx, rep.base+path, body)
		if err == nil {
			return resp, rep, i > 0, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, nil, false, ctx.Err()
		}
		rt.markDown(rep)
	}
	return nil, nil, false, fmt.Errorf("router: all %d replicas failed, last: %v", len(cands), lastErr)
}

// postJSON sends a JSON body to url under ctx. Point forwards, shard
// streams and probes all call http.DefaultTransport directly, not
// through an http.Client: replicas never redirect, and each caller
// bounds its request with a deadline on ctx.
func postJSON(ctx context.Context, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return http.DefaultTransport.RoundTrip(req)
}

// --- Router observability ----------------------------------------------

// ReplicaHealth is the router's view of one backend.
type ReplicaHealth struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"` // omitted when the name IS the URL
	// Routable reports that the replica is on the ring, so traffic
	// reaches it; it follows Healthy and Draining once the ring is
	// rebuilt.
	Routable bool `json:"routable"`
	Healthy  bool `json:"healthy"`
	Draining bool `json:"draining"`
	// Cache/warm figures echo the replica's last JSON health body.
	CacheEntries int   `json:"cache_entries"`
	WarmLoaded   int64 `json:"warm_loaded"`
	// Proxied counts the point queries this replica answered and Cells
	// the sweep cells whose home it was; over all replicas they sum to
	// the router's Proxied and Cells.
	Proxied int64 `json:"proxied"`
	Cells   int64 `json:"cells"`
}

// Stats is the /v1/stats body: the router's own counters plus its
// current view of the fleet. AliasHits counts the Proxied point
// queries routed by the alias map, without a decode.
type Stats struct {
	Proxied   int64           `json:"proxied"`
	AliasHits int64           `json:"alias_hits"`
	Failovers int64           `json:"failovers"`
	Sweeps    int64           `json:"sweeps"`
	Cells     int64           `json:"cells"`
	ShardHops int64           `json:"shard_hops"`
	Ejections int64           `json:"ejections"`
	Rejected  int64           `json:"rejected"`
	Replicas  []ReplicaHealth `json:"replicas"`
}

// Snapshot returns the router counters and fleet view.
func (rt *Router) Snapshot() Stats {
	s := Stats{
		Proxied:   rt.stats.proxied.Load(),
		AliasHits: rt.stats.aliasHits.Load(),
		Failovers: rt.stats.failovers.Load(),
		Sweeps:    rt.stats.sweeps.Load(),
		Cells:     rt.stats.cells.Load(),
		ShardHops: rt.stats.shardHops.Load(),
		Ejections: rt.stats.ejections.Load(),
		Rejected:  rt.stats.rejected.Load(),
	}
	onRing := rt.ring.Load().member
	for i, rep := range rt.replicas {
		rep.lastMu.Lock()
		last := rep.last
		rep.lastMu.Unlock()
		s.Replicas = append(s.Replicas, ReplicaHealth{
			Name: rep.name,
			URL: func() string {
				if rep.base != rep.name {
					return rep.base
				}
				return ""
			}(),
			Routable:     onRing[i],
			Healthy:      rep.healthy.Load(),
			Draining:     rep.draining.Load(),
			CacheEntries: last.CacheEntries,
			WarmLoaded:   last.WarmLoaded,
			Proxied:      rep.proxied.Load(),
			Cells:        rep.cells.Load(),
		})
	}
	return s
}

// handleHealthz reports the router itself: ok while at least one
// replica is routable, 503 otherwise (so an outer balancer can eject a
// router with no backends).
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	routable := 0
	for _, rep := range rt.replicas {
		if rep.routable() {
			routable++
		}
	}
	status, text := http.StatusOK, "ok"
	if routable == 0 {
		status, text = http.StatusServiceUnavailable, "no routable replicas"
	}
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		writeJSON(w, status, struct {
			Status   string `json:"status"`
			Routable int    `json:"routable"`
			Replicas int    `json:"replicas"`
		}{text, routable, len(rt.replicas)})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(status)
	fmt.Fprintln(w, text)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Snapshot())
}
