package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/netsim"
	"ctcomm/internal/query"
	"ctcomm/internal/serve"
)

// traceRounds is how many measured rounds the traced run replays: a
// fixed count, so the counts it reports repeat exactly for a seed.
var traceRounds = map[string]int{"query-mix": 20, "routed-mix": 8, "sweep-law": 10, "sweep-engine": 10}

// spanHeader carries the client span id to the server-side span.
const spanHeader = "X-Perfbench-Span"

// span is one timed interval at a layer boundary. Spans of one request
// or replayed item share Trace; Parent is the causing span (0 if none
// or unknown from outside, as behind the router).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Trace  int64   `json:"trace"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	Dur    float64 `json:"dur_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// open starts a span; the returned func ends it and returns its
// duration.
func (t *tracer) open(layer, name string, parent, trace int64) (int64, func() time.Duration) {
	id := t.next.Add(1)
	start := time.Now()
	return id, func() time.Duration {
		d := time.Since(start)
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name,
			Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e3, Dur: float64(d.Nanoseconds()) / 1e3})
		t.mu.Unlock()
		return d
	}
}

// timeIt runs f inside a span and returns its duration.
func (t *tracer) timeIt(layer, name string, trace int64, f func()) time.Duration {
	_, end := t.open(layer, name, 0, trace)
	f()
	return end()
}

// acc accumulates one layer measurement: total time, calls, and any
// counts.
type acc struct {
	dur   time.Duration
	calls int
}

func (a *acc) add(d time.Duration) { a.dur += d; a.calls++ }

func (a acc) meanUs() float64 {
	if a.calls == 0 {
		return 0
	}
	return float64(a.dur.Nanoseconds()) / 1e3 / float64(a.calls)
}

// traceRun holds everything the traced run measures.
type traceRun struct {
	in     *Inputs
	tr     *tracer
	rounds [][]int32
	m      map[string]metric // every per-layer metric, reported or not
	notes  []string
}

func (t *traceRun) set(name string, v float64, unit string) { t.m[name] = metric{v, unit} }

// perLayer names the metrics printed on the last line: those measured
// on every workload from its own traffic. The rest, each measured only
// on the workloads whose traffic reaches its layer, are in the trace
// file.
var perLayer = []string{
	"serve.hit_ratio", "serve.misses", "serve.rejected", "serve.http_us",
	"query.us_per_call",
	"comm.us_per_op", "comm.engine_stage_ratio",
	"memsim.accesses_per_op", "memsim.ns_per_access",
	"trace.overhead_ratio", "trace.residual_ratio",
}

// traced is the --trace 1 run: it replays a fixed number of rounds
// end to end (untraced and traced, alternating; in routed-mix also on
// one connection, routed and direct) and then at each layer's entry
// point, writes the spans and the
// breakdown under .bench_build/traces, and prints the per-layer
// metrics.
func traced(workload string, seed int64, stderr io.Writer) (*result, error) {
	n, ok := traceRounds[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	in, err := Generate(workload, seed, n)
	if err != nil {
		return nil, err
	}
	t := &traceRun{in: in, tr: &tracer{t0: time.Now()}, rounds: in.Rounds[1:], m: map[string]metric{}}
	ck := newChecker(in)

	// Calibration first, while the process is cold.
	t.calibrate()
	// Untraced and traced replays alternate twice; the overhead compares
	// the faster of each pair, and the first traced replay is the whole
	// the breakdown divides.
	var plain, whole e2e
	for i := 0; i < 2; i++ {
		p, err := t.endToEnd(ck, in.Routed, false, in.Conns)
		if err != nil {
			return nil, err
		}
		w, err := t.endToEnd(ck, in.Routed, true, in.Conns)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			whole = w
		}
		if p.opsPerS > plain.opsPerS {
			plain.opsPerS = p.opsPerS
		}
		whole.bestOpsPerS = max(whole.bestOpsPerS, w.opsPerS)
	}
	t.set("trace.overhead_ratio", 1-whole.bestOpsPerS/plain.opsPerS, "ratio")
	t.set("serve.hit_ratio", float64(whole.hits)/float64(max(1, whole.hits+whole.misses)), "ratio")
	t.set("serve.misses", float64(whole.misses), "count")
	t.set("serve.rejected", float64(whole.rejected), "count")
	if in.Routed {
		if err := t.routerLayer(ck); err != nil {
			return nil, err
		}
	} else {
		t.notes = append(t.notes, "router: the workload is sent straight to one server")
	}

	points, specs := t.distinct()
	if err := t.serveLayer(points, specs); err != nil {
		return nil, err
	}
	var sweepDur map[int32]time.Duration
	if len(specs) > 0 {
		sweepDur = t.sweepLayer(specs)
	} else {
		t.notes = append(t.notes, "sweep: the workload sends no sweep, so serve streams none and no session runs")
	}
	if len(points) == 0 {
		t.notes = append(t.notes, "serve: the workload sends no point request, so it has no cache hit")
	}
	queryDur := t.queryLayer(points, specs)
	t.commLayer(points, specs)
	t.collectiveLayer(points, specs)
	t.breakdown(whole, plain, queryDur, sweepDur)

	if err := t.write(workload, seed); err != nil {
		return nil, err
	}
	ck.verify(newClient(1), "")
	res := &result{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: map[string]metric{}}
	for _, name := range perLayer {
		v, ok := t.m[name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
		res.Metrics[name] = v
	}
	for _, e := range ck.errs {
		fmt.Fprintln(stderr, "perfbench:", e)
	}
	return res, nil
}

// e2e is one end-to-end replay's totals.
type e2e struct {
	opsPerS     float64
	bestOpsPerS float64       // the faster of the traced replays
	clientDur   time.Duration // sum of client-side request times
	handlerDur  time.Duration // sum of in-process handler times
	requests    int
	answers     int
	rows        int
	alloc       uint64 // bytes allocated during the replay, whole process
	// clients and handlers are the request intervals as the client and
	// the server handlers saw them.
	clients, handlers []interval
	// serve and router counters over the replay
	hits, misses, rejected, failovers int64
}

// calibrate times building every calibrated rate table the workload
// reads, cold.
func (t *traceRun) calibrate() {
	var total acc
	for _, i := range t.in.Warm {
		r := &t.in.Reqs[i]
		if r.Kind != "eval" {
			continue
		}
		var e query.EvalRequest
		if err := json.Unmarshal(r.Body, &e); err != nil || e.Rates != "calibrated" {
			continue
		}
		m, err := query.ResolveMachine(e.Machine)
		if err != nil {
			continue
		}
		name := e.Machine
		if e.Level != "" {
			name += "@" + e.Level
		}
		d := t.tr.timeIt("calibrate", "SharedRateTable "+name, 0, func() {
			if e.Level == "" {
				calibrate.SharedRateTable(m)
				return
			}
			if l, err := netsim.ParseLevel(e.Level); err == nil {
				calibrate.SharedRateTableAt(m, l)
			}
		})
		t.set("calibrate.setup_ms."+name, ms(d), "ms")
		total.add(d)
	}
	if total.calls == 0 {
		t.notes = append(t.notes, "calibrate: the workload reads no calibrated rate table")
		return
	}
	t.set("calibrate.setup_ms", ms(total.dur), "ms")
	t.set("calibrate.tables", float64(total.calls), "count")
}

// endToEnd replays the rounds over loopback HTTP on a fresh stack,
// through a router when routed. Traced, it records a client span per
// request and a server span per handler call.
func (t *traceRun) endToEnd(ck *checker, routed, traced bool, conns int) (e2e, error) {
	var handler atomic.Int64
	var mu sync.Mutex
	var handlers []interval
	var wrap func(http.Handler) http.Handler
	if traced {
		wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
				_, end := t.tr.open("serve", r.URL.Path, parent, parent)
				start := time.Now()
				h.ServeHTTP(w, r)
				handler.Add(int64(end()))
				mu.Lock()
				handlers = append(handlers, interval{start, time.Now(), 0})
				mu.Unlock()
			})
		}
	}
	st, err := startStack(routed, wrap)
	if err != nil {
		return e2e{}, err
	}
	defer st.close()
	client := newClient(conns)
	if err := waitReady(client, st.base); err != nil {
		return e2e{}, err
	}
	in := *t.in
	in.Conns = conns
	l := &loop{client: client, base: st.base, in: &in, ck: ck}
	l.sendAll(t.in.Warm)
	l.sendAll(t.in.Fill)
	l.run(t.in.Rounds[:1], time.Time{})
	handler.Store(0)
	mu.Lock()
	handlers = nil
	mu.Unlock()
	before := serveCounts(st.servers)
	var fo0 int64
	if st.router != nil {
		fo0 = st.router.Snapshot().Failovers
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res e2e
	start := time.Now()
	if traced {
		res = t.tracedRounds(client, st.base, ck, conns)
	} else {
		for _, s := range l.run(t.rounds, time.Time{}) {
			res.answers += s.answers
			res.requests += len(s.samples)
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	res.opsPerS = float64(res.answers) / wall.Seconds()
	res.handlerDur = time.Duration(handler.Load())
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	mu.Lock()
	res.handlers = handlers
	mu.Unlock()
	after := serveCounts(st.servers)
	res.hits, res.misses, res.rejected = after.hits-before.hits, after.misses-before.misses, after.rejected
	if st.router != nil {
		res.failovers = st.router.Snapshot().Failovers - fo0
	}
	return res, nil
}

// tracedRounds is loop.run with a client span around every request;
// the span id travels in a header so the server span can name it.
func (t *traceRun) tracedRounds(client *http.Client, base string, ck *checker, conns int) e2e {
	var res e2e
	var mu sync.Mutex
	for _, round := range t.rounds {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(round) {
						return
					}
					idx := round[i]
					r := &t.in.Reqs[idx]
					id, end := t.tr.open("client", r.Path, 0, int64(idx)+1)
					start := time.Now()
					o := sendTagged(client, base, r, id)
					d := end()
					ck.record(idx, o)
					mu.Lock()
					res.clients = append(res.clients, interval{start, time.Now(), r.Cells})
					res.clientDur += d
					res.requests++
					res.answers += o.answers
					if r.Cells > 0 {
						res.rows += o.answers
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	return res
}

// sendTagged is send with the client span id in a header.
func sendTagged(c *http.Client, base string, r *Req, id int64) outcome {
	tc := *c
	tc.Transport = tagTransport{c.Transport, id}
	return send(&tc, base, r, false)
}

type tagTransport struct {
	rt http.RoundTripper
	id int64
}

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, strconv.FormatInt(t.id, 10))
	return t.rt.RoundTrip(r)
}

type counts struct{ hits, misses, rejected int64 }

func serveCounts(servers []*serve.Server) counts {
	var c counts
	for _, s := range servers {
		snap := s.Snapshot()
		c.hits += snap.Cache.Hits
		c.misses += snap.Cache.Misses
		c.rejected += snap.Queue.Rejected
	}
	return c
}

// interval is one request's time span; rows is the rows it streamed
// (client side only).
type interval struct {
	start, end time.Time
	rows       int
}

// routerLayer replays the rounds on one connection through a router
// and, for comparison, straight to one replica, and derives the
// router's share of the routed replay. One connection, so each
// request's replica handler calls can be told apart by time: each
// client request's time minus the time covered by the replica handler
// calls inside it (the union, as a sweep's shards run on both replicas
// at once) is the router and its loopback hops. Its allocation is the
// routed replay's per answer minus the direct one's.
func (t *traceRun) routerLayer(ck *checker) error {
	res, err := t.endToEnd(ck, true, true, 1)
	if err != nil {
		return err
	}
	direct, err := t.endToEnd(ck, false, true, 1)
	if err != nil {
		return err
	}
	if res.failovers > 0 {
		return fmt.Errorf("the router failed over %d times", res.failovers)
	}
	hs := append([]interval(nil), res.handlers...)
	sort.Slice(hs, func(i, j int) bool { return hs[i].start.Before(hs[j].start) })
	var outside, outsideSweeps time.Duration
	for _, c := range res.clients {
		var inside time.Duration
		var covered time.Time // end of the union so far
		for _, h := range hs {
			if h.start.Before(c.start) || h.end.After(c.end) {
				continue
			}
			from := h.start
			if from.Before(covered) {
				from = covered
			}
			if h.end.After(from) {
				inside += h.end.Sub(from)
				covered = h.end
			}
		}
		d := c.end.Sub(c.start) - inside
		outside += d
		if c.rows > 0 {
			outsideSweeps += d
		}
	}
	perAnswer := func(e e2e) float64 { return float64(e.alloc) / 1024 / float64(max(1, e.answers)) }
	t.set("router.us_per_op", float64(outside.Nanoseconds())/1e3/float64(max(1, res.requests)), "us")
	t.set("router.alloc_kb_per_op", perAnswer(res)-perAnswer(direct), "KiB")
	t.set("router.failovers", float64(res.failovers), "count")
	if res.rows > 0 {
		t.set("router.fanout_us_per_row", float64(outsideSweeps.Nanoseconds())/1e3/float64(res.rows), "us")
	}
	return nil
}
