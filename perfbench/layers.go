package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
	"ctcomm/internal/pattern"
	"ctcomm/internal/query"
	"ctcomm/internal/sim"
	"ctcomm/internal/sweep"
	"ctcomm/internal/xfer"
)

// distinct returns the replayed rounds' distinct point requests and
// sweep requests (request indices, in first-sent order).
func (t *traceRun) distinct() (points, specs []int32) {
	seen := map[int32]bool{}
	for _, round := range t.rounds {
		for _, idx := range round {
			if seen[idx] {
				continue
			}
			seen[idx] = true
			if t.in.Reqs[idx].Cells > 0 {
				specs = append(specs, idx)
			} else {
				points = append(points, idx)
			}
		}
	}
	return points, specs
}

// pointCell expresses a point request as a sweep cell.
func pointCell(r *Req) (sweep.Cell, bool) {
	var c sweep.Cell
	var err error
	switch r.Kind {
	case "eval":
		var q query.EvalRequest
		err = json.Unmarshal(r.Body, &q)
		q = q.Canon()
		c.Eval = &q
	case "price":
		var q query.PriceRequest
		err = json.Unmarshal(r.Body, &q)
		q = q.Canon()
		c.Price = &q
	case "plan":
		var q query.PlanRequest
		err = json.Unmarshal(r.Body, &q)
		q = q.Canon()
		c.Plan = &q
	case "collective":
		var q query.CollectiveRequest
		err = json.Unmarshal(r.Body, &q)
		q = q.Canon()
		c.Collective = &q
	default:
		return c, false
	}
	return c, err == nil
}

func expand(r *Req) []sweep.Cell {
	var spec sweep.Spec
	if err := json.Unmarshal(r.Body, &spec); err != nil {
		panic(err) // the generator marshalled it
	}
	cells, err := sweep.Expand(spec)
	if err != nil {
		panic(err) // the generator expanded it
	}
	return cells
}

func cellKind(c sweep.Cell) string {
	switch {
	case c.Eval != nil:
		return "eval"
	case c.Price != nil:
		return "price"
	case c.Plan != nil:
		return "plan"
	}
	return "collective"
}

// inProcess runs one request through h without a socket.
func inProcess(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	start := time.Now()
	h.ServeHTTP(rec, req)
	return rec, time.Since(start)
}

// serveLayer measures the serve layer on a fresh server, with every
// answer cached so that no query work is included: the in-process
// handler time of each point request (a hit) and per streamed row of
// each sweep, and the loopback minus the in-process time of the same
// request, which is the HTTP hop alone.
func (t *traceRun) serveLayer(points, specs []int32) error {
	st, err := startStack(false, nil)
	if err != nil {
		return err
	}
	defer st.close()
	h := st.servers[0].Handler()
	client := newClient(1)
	items := append(append([]int32(nil), points...), specs...)
	for _, idx := range items { // fills the cache
		r := &t.in.Reqs[idx]
		if rec, _ := inProcess(h, r.Path, r.Body); rec.Code != http.StatusOK {
			return fmt.Errorf("in-process %s: HTTP %d", r.Path, rec.Code)
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var hit, stream, inside acc
	rows := 0
	for i, idx := range items {
		r := &t.in.Reqs[idx]
		if i == len(points) {
			runtime.ReadMemStats(&m1)
		}
		name := "hit "
		if r.Cells > 0 {
			name = "stream "
		}
		_, end := t.tr.open("serve", name+r.Path, 0, int64(idx)+1)
		inProcess(h, r.Path, r.Body)
		d := end()
		inside.add(d)
		if r.Cells > 0 {
			stream.add(d)
			rows += r.Cells
		} else {
			hit.add(d)
		}
	}
	if len(specs) == 0 {
		runtime.ReadMemStats(&m1)
	}
	if hit.calls > 0 {
		t.set("serve.hit_us", hit.meanUs(), "us")
		t.set("serve.alloc_kb_per_hit", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(hit.calls), "KiB")
	}
	if rows > 0 {
		t.set("serve.stream_us_per_row", float64(stream.dur.Nanoseconds())/1e3/float64(rows), "us")
	}

	var loop acc
	for _, idx := range items {
		r := &t.in.Reqs[idx]
		_, end := t.tr.open("client", "cached "+r.Path, 0, int64(idx)+1)
		o := send(client, st.base, r, false)
		d := end()
		if o.err != nil {
			return o.err
		}
		loop.add(d)
	}
	t.set("serve.http_us", loop.meanUs()-inside.meanUs(), "us")
	return nil
}

// sweepLayer replays every sweep through sweep.Expand and sweep.Run
// with a fresh batch each. It returns each sweep request's sweep.Run
// time.
func (t *traceRun) sweepLayer(specs []int32) map[int32]time.Duration {
	type job struct {
		idx   int32
		cells []sweep.Cell
	}
	var jobs []job
	var expand acc
	expandCells := 0
	for _, idx := range specs {
		var spec sweep.Spec
		if err := json.Unmarshal(t.in.Reqs[idx].Body, &spec); err != nil {
			panic(err)
		}
		var cs []sweep.Cell
		expand.add(t.tr.timeIt("sweep", "Expand", int64(idx)+1, func() {
			var err error
			if cs, err = sweep.Expand(spec); err != nil {
				panic(err)
			}
		}))
		expandCells += len(cs)
		jobs = append(jobs, job{idx, cs})
	}
	t.set("sweep.expand_us_per_cell", float64(expand.dur.Nanoseconds())/1e3/float64(max(1, expandCells)), "us")

	durs := map[int32]time.Duration{}
	var run, first acc
	rows, analytic := 0, 0
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, j := range jobs {
		_, end := t.tr.open("sweep", "Run", 0, int64(j.idx)+1)
		start := time.Now()
		var firstAt time.Duration
		stats, err := sweep.Run(context.Background(), j.cells, sweep.Options{}, func(sweep.Row) error {
			if firstAt == 0 {
				firstAt = time.Since(start)
			}
			return nil
		})
		if err != nil {
			panic(err)
		}
		d := end()
		run.add(d)
		first.add(firstAt)
		rows += stats.Cells
		analytic += stats.Analytic
		durs[j.idx] = d
	}
	runtime.ReadMemStats(&m1)
	t.set("sweep.rows_per_s", float64(rows)/run.dur.Seconds(), "1/s")
	t.set("sweep.first_row_ms", first.meanUs()/1e3, "ms")
	t.set("sweep.analytic_ratio", float64(analytic)/float64(max(1, rows)), "ratio")
	t.set("sweep.analytic_rows", float64(analytic), "count")
	t.set("sweep.alloc_kb_per_row", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(max(1, rows)), "KiB")
	return durs
}

// queryLayer times one cold query call per distinct request, through
// the entry point the server uses for it: the batchless call for a
// point request, and for a sweep, one call per cell through a fresh
// query.Batch per sweep, in order. It returns each request's time.
func (t *traceRun) queryLayer(points, specs []int32) map[int32]time.Duration {
	durs := map[int32]time.Duration{}
	byKind := map[string]*acc{}
	var all acc
	add := func(kind string, d time.Duration) {
		if byKind[kind] == nil {
			byKind[kind] = &acc{}
		}
		byKind[kind].add(d)
		all.add(d)
	}
	for _, idx := range points {
		r := &t.in.Reqs[idx]
		var err error
		d := t.tr.timeIt("query", r.Kind, int64(idx)+1, func() { _, err = answer(r.Kind, r.Body) })
		if err != nil {
			panic(err) // the timed run checks every answer
		}
		durs[idx] = d
		add(r.Kind, d)
	}
	for _, idx := range specs {
		b := query.NewBatch()
		for _, c := range expand(&t.in.Reqs[idx]) {
			var err error
			d := t.tr.timeIt("query", "Batch "+cellKind(c), int64(idx)+1, func() { _, _, err = c.ExecBatch(b) })
			if err != nil {
				panic(err)
			}
			durs[idx] += d
			add("batch_"+cellKind(c), d)
		}
	}
	t.set("query.us_per_call", all.meanUs(), "us")
	for kind, a := range byKind {
		if strings.HasSuffix(kind, "eval") || kind == "fit" {
			t.set("query."+kind+"_us", a.meanUs(), "us")
		} else {
			t.set("query."+kind+"_ms", a.meanUs()/1e3, "ms")
		}
	}
	return durs
}

// cellsOf returns the cells of sweep request idx that keep selects.
func (t *traceRun) cellsOf(idx int32, keep func(sweep.Cell) bool) []sweep.Cell {
	var cs []sweep.Cell
	for _, c := range expand(&t.in.Reqs[idx]) {
		if keep(c) {
			cs = append(cs, c)
		}
	}
	return cs
}

// priceArgs resolves a price request to the comm arguments, on a fresh
// machine observed by st.
func priceArgs(r query.PriceRequest, st *sim.Stats) (*machineArgs, error) {
	m, err := query.ResolveMachine(r.Machine)
	if err != nil {
		return nil, err
	}
	style, err := comm.ParseStyle(r.Style)
	if err != nil {
		return nil, err
	}
	x, err := pattern.ParseSpec(r.X)
	if err != nil {
		return nil, err
	}
	y, err := pattern.ParseSpec(r.Y)
	if err != nil {
		return nil, err
	}
	m.Observe(st)
	return &machineArgs{m: m, style: style, x: x, y: y,
		opt: comm.Options{Words: r.Words, Congestion: r.Congestion, Duplex: r.Duplex}}, nil
}

type machineArgs struct {
	m     *machine.Machine
	style comm.Style
	x, y  pattern.Spec
	opt   comm.Options
}

// transfer is one basic transfer a comm operation asked its source for.
type transfer struct {
	kind  xfer.Kind
	x, y  pattern.Spec
	words int
}

// recorder is a comm.Source that notes every transfer it passes on.
type recorder struct {
	src  comm.Source
	seen *[]transfer
}

func (r recorder) Transfer(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error) {
	*r.seen = append(*r.seen, transfer{kind, x, y, words})
	return r.src.Transfer(kind, x, y, words)
}

// commLayer replays the price requests at the comm entry point the
// server reaches them through: batchless comm.Run for each distinct
// price point request, and for each price cell of a sweep, one
// comm.Session per sweep as query.Batch holds it (Session.Run, with a
// recorder noting the basic transfers it asks for). Simulated memory
// accesses are counted on both through machine.Observe (a price
// operation dispatches no network events; collectiveLayer counts
// those).
// The laws are then fitted as the sessions fit them: once per sweep,
// transfer kind, shape and residue class of a transfer whose shape has
// a structural period.
func (t *traceRun) commLayer(points, specs []int32) {
	var st sim.Stats
	var engine, session acc
	analyticStages, engineStages := 0, 0
	for _, idx := range points {
		c, ok := pointCell(&t.in.Reqs[idx])
		if !ok || c.Price == nil {
			continue
		}
		a, err := priceArgs(*c.Price, &st)
		if err != nil {
			panic(err)
		}
		var res comm.Result
		engine.add(t.tr.timeIt("comm", "Run", int64(idx)+1, func() {
			if res, err = comm.Run(a.m, a.style, a.x, a.y, a.opt); err != nil {
				panic(err)
			}
		}))
		analyticStages += res.AnalyticStages
		engineStages += res.EngineStages
	}
	var sweeps []sweepTransfers
	for _, idx := range specs {
		s := comm.NewSession()
		machines := map[string]*machine.Machine{}
		var seen []transfer
		for _, c := range t.cellsOf(idx, func(c sweep.Cell) bool { return c.Price != nil }) {
			r := *c.Price
			a, err := priceArgs(r, nil)
			if err != nil {
				panic(err)
			}
			// One machine per profile, as query.Batch shares it.
			if m, ok := machines[r.Machine]; ok {
				a.m = m
			} else {
				a.m.Observe(&st)
				machines[r.Machine] = a.m
			}
			var res comm.Result
			session.add(t.tr.timeIt("comm", "Session.Run", int64(idx)+1, func() {
				src := recorder{s.SourceFor(a.m), &seen}
				if res, err = comm.RunWith(a.m, a.style, a.x, a.y, a.opt, src); err != nil {
					panic(err)
				}
			}))
			analyticStages += res.AnalyticStages
			engineStages += res.EngineStages
		}
		for name := range machines {
			sweeps = append(sweeps, sweepTransfers{name, seen})
		}
	}
	ops := engine.calls + session.calls
	dur := engine.dur + session.dur
	if engine.calls > 0 {
		t.set("comm.engine_ms_per_op", engine.meanUs()/1e3, "ms")
	}
	if session.calls > 0 {
		t.set("comm.session_us_per_cell", session.meanUs(), "us")
	}
	t.set("comm.us_per_op", float64(dur.Nanoseconds())/1e3/float64(max(1, ops)), "us")
	t.set("comm.engine_stage_ratio", float64(engineStages)/float64(max(1, engineStages+analyticStages)), "ratio")
	t.set("memsim.accesses_per_op", float64(st.Accesses())/float64(max(1, ops)), "count")
	t.set("memsim.ns_per_access", float64(dur.Nanoseconds())/float64(max(1, st.Accesses())), "ns")
	t.lawLayer(sweeps)
}

// sweepTransfers is the basic transfers one single-machine sweep's
// session asked for.
type sweepTransfers struct {
	machine string
	seen    []transfer
}

// lawLayer fits, and evaluates where they cover, the laws the sweeps'
// sessions fit: per sweep, one per transfer kind, shape and residue
// class. A machine is resolved fresh per sweep, as query.Batch does.
func (t *traceRun) lawLayer(sweeps []sweepTransfers) {
	var fit, eval acc
	fitted, rejected := 0, 0
	for _, sw := range sweeps {
		type lawKey struct {
			kind    xfer.Kind
			x, y    pattern.Spec
			residue int
		}
		laws := map[lawKey]*xfer.Law{}
		m, err := query.ResolveMachine(sw.machine)
		if err != nil {
			panic(err)
		}
		for _, tr := range sw.seen {
			p := xfer.PeriodOf(m, tr.kind, tr.x, tr.y)
			if p == 0 {
				continue
			}
			key := lawKey{tr.kind, tr.x, tr.y, tr.words % p}
			law, ok := laws[key]
			if !ok {
				fit.add(t.tr.timeIt("xfer", "FitLaw "+tr.kind.String(), 0, func() {
					law = xfer.FitLaw(m, tr.kind, tr.x, tr.y, key.residue)
				}))
				laws[key] = law
				if law == nil {
					rejected++
				} else {
					fitted++
				}
			}
			if law != nil && law.Covers(tr.words) {
				eval.add(t.tr.timeIt("xfer", "Law.Eval", 0, func() {
					if _, err := law.Eval(tr.words); err != nil {
						panic(err)
					}
				}))
			}
		}
	}
	if fit.calls == 0 {
		t.notes = append(t.notes, "xfer: the workload sends no price sweep, so no session fits a law")
		return
	}
	t.set("xfer.law_fit_ms", fit.meanUs()/1e3, "ms")
	t.set("xfer.laws_fitted", float64(fitted), "count")
	t.set("xfer.laws_rejected", float64(rejected), "count")
	t.set("xfer.law_evals", float64(eval.calls), "count")
	if eval.calls > 0 {
		t.set("xfer.law_eval_us", eval.meanUs(), "us")
	}
}

// collectiveLayer replays the collective requests at the collective
// entry point the server reaches them through: for each distinct
// collective point request, collective.New and Plan.Evaluate per
// strategy (the batchless path), and for each collective cell of a
// sweep, Session.Evaluate per strategy on one session per sweep, as
// query.Batch holds it.
func (t *traceRun) collectiveLayer(points, specs []int32) {
	var plan, evaluate, session acc
	var simStats sim.Stats
	phases, enginePhases := 0, 0
	// each calls f for every strategy of collective request r, on the
	// machine of r taken from machines (resolved and observed once).
	each := func(r query.CollectiveRequest, machines map[string]*machine.Machine,
		f func(m *machine.Machine, op collective.Op, st collective.Strategy, nodes int)) {
		m, ok := machines[r.Machine]
		if !ok {
			var err error
			if m, err = query.ResolveMachine(r.Machine); err != nil {
				panic(err)
			}
			m.Observe(&simStats)
			machines[r.Machine] = m
		}
		op, err := collective.ParseOp(r.Collective)
		if err != nil {
			panic(err)
		}
		strategies := collective.Strategies()
		if r.Strategy != "" {
			st, err := collective.ParseStrategy(r.Strategy)
			if err != nil {
				panic(err)
			}
			strategies = []collective.Strategy{st}
		}
		nodes := r.Nodes
		if nodes == 0 {
			nodes = m.Nodes()
		}
		for _, st := range strategies {
			f(m, op, st, nodes)
		}
	}
	for _, idx := range points {
		c, ok := pointCell(&t.in.Reqs[idx])
		if !ok || c.Collective == nil {
			continue
		}
		r := *c.Collective
		each(r, map[string]*machine.Machine{}, func(m *machine.Machine, op collective.Op, st collective.Strategy, nodes int) {
			var p *collective.Plan
			var err error
			d := t.tr.timeIt("collective", "New", int64(idx)+1, func() { p, err = collective.New(op, st, nodes, r.Offset) })
			if err != nil {
				return // e.g. doubling over a non-power-of-two domain
			}
			plan.add(d)
			var ev collective.Eval
			evaluate.add(t.tr.timeIt("collective", "Plan.Evaluate", int64(idx)+1, func() {
				if ev, err = p.Evaluate(m, r.Words, false); err != nil {
					panic(err)
				}
			}))
			phases += ev.Phases
			enginePhases += ev.EnginePhases
		})
	}
	for _, idx := range specs {
		s := collective.NewSession()
		machines := map[string]*machine.Machine{}
		for _, c := range t.cellsOf(idx, func(c sweep.Cell) bool { return c.Collective != nil }) {
			r := *c.Collective
			each(r, machines, func(m *machine.Machine, op collective.Op, st collective.Strategy, nodes int) {
				var ev collective.Eval
				var err error
				d := t.tr.timeIt("collective", "Session.Evaluate", int64(idx)+1, func() {
					ev, _, err = s.Evaluate(m, op, st, nodes, r.Offset, r.Words, false)
				})
				if err != nil {
					return // as collective.New refuses it
				}
				session.add(d)
				phases += ev.Phases
				enginePhases += ev.EnginePhases
			})
		}
	}
	if plan.calls+session.calls == 0 {
		t.notes = append(t.notes, "collective: the workload sends no collective request")
		return
	}
	if plan.calls > 0 {
		t.set("collective.plan_us", plan.meanUs(), "us")
		t.set("collective.evaluate_ms", evaluate.meanUs()/1e3, "ms")
	}
	if session.calls > 0 {
		t.set("collective.session_us_per_call", session.meanUs(), "us")
	}
	t.set("collective.engine_phase_ratio", float64(enginePhases)/float64(max(1, phases)), "ratio")
	t.set("collective.sim_events_per_call", float64(simStats.Events())/float64(max(1, plan.calls+session.calls)), "count")
}

// breakdown sets the parts of the traced end-to-end replay against its
// whole. The whole is the sum of the client's request times. Its parts:
// transport (loopback HTTP, and the router in a routed replay) is the
// client's time minus the time inside the server handlers; serve is
// predicted from the serve layer replay (hit path per point request,
// streaming cost per row); compute is predicted from the layer replays
// (the cold query call of each point request the replay missed, the
// direct sweep.Run of each sweep). The residual is what the parts do
// not explain: queueing behind the other connection, and work the
// layer replays do not see.
func (t *traceRun) breakdown(whole, plain e2e, queryDur, sweepDur map[int32]time.Duration) {
	var compute time.Duration
	points, rows := 0, 0
	for _, round := range t.rounds {
		for _, idx := range round {
			r := &t.in.Reqs[idx]
			if r.Cells > 0 {
				compute += sweepDur[idx]
				rows += r.Cells
				continue
			}
			points++
			if r.Cold {
				compute += queryDur[idx]
			}
		}
	}
	serveUs := float64(points)*t.m["serve.hit_us"].Value + float64(rows)*t.m["serve.stream_us_per_row"].Value
	serveD := time.Duration(serveUs * 1e3)
	transport := whole.clientDur - whole.handlerDur
	residual := whole.clientDur - transport - serveD - compute
	t.set("trace.whole_ms", ms(whole.clientDur), "ms")
	t.set("trace.transport_ms", ms(transport), "ms")
	t.set("trace.serve_ms", ms(serveD), "ms")
	t.set("trace.compute_ms", ms(compute), "ms")
	t.set("trace.residual_ms", ms(residual), "ms")
	t.set("trace.residual_ratio", float64(residual)/float64(whole.clientDur), "ratio")
	t.set("trace.ops_per_s_untraced", plain.opsPerS, "1/s")
	t.set("trace.ops_per_s_traced", whole.bestOpsPerS, "1/s")
}

// write saves the spans and every measured metric, reported or not, as
// JSON under .bench_build/traces.
func (t *traceRun) write(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sort.Slice(t.tr.spans, func(i, j int) bool { return t.tr.spans[i].Start < t.tr.spans[j].Start })
	out := struct {
		Workload string            `json:"workload"`
		Seed     int64             `json:"seed"`
		Rounds   int               `json:"rounds"`
		Metrics  map[string]metric `json:"metrics"`
		Notes    []string          `json:"notes,omitempty"`
		Spans    []span            `json:"spans"`
	}{workload, seed, len(t.rounds), t.m, t.notes, t.tr.spans}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	var names []string
	for n := range t.m {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-34s %14.4f %s\n", n, t.m[n].Value, t.m[n].Unit)
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace of %s seed %d (%d spans) in %s\n%s", workload, seed, len(t.tr.spans), path, sb.String())
	return nil
}
