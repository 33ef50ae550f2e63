// Package sweep is the batched parameter-sweep engine over the query
// core. The paper's central results are grids, not single points:
// Figures 7-8 and Table 5 evaluate every transfer style across a sweep
// of strides, block sizes and machines, and Table 6 sweeps application
// kernels across problem sizes. A Spec describes such a grid compactly
// (machines x operations x styles x sizes); Expand unfolds it into
// canonical internal/query requests ("cells"), and Run executes the
// cells concurrently in chunks, reporting one Row per cell.
//
// The engine is shared by three frontends — POST /v1/sweep on the
// ctserved HTTP service (streaming NDJSON), ctcomm.Sweep on the public
// facade, and `ctmodel -sweep spec.json` on the CLI — so a cell's
// rendered text is byte-identical across all of them, and identical to
// the equivalent point query (/v1/eval, /v1/price, /v1/plan), because
// every path bottoms out in the same query functions.
//
// Partial-failure semantics: an invalid or failing cell yields a Row
// with Err set; it never aborts the sweep. Only a malformed Spec (bad
// kind, oversized grid, empty grid, axes that do not apply to the
// kind) is rejected as a whole, with query.ErrBadRequest.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"ctcomm/internal/once"
	"ctcomm/internal/query"
)

// DefaultMaxCells caps a grid expansion when Spec.MaxCells is unset.
const DefaultMaxCells = 4096

// HardMaxCells bounds MaxCells itself: no spec may expand to more
// cells than this, whatever it asks for.
const HardMaxCells = 1 << 16

// Spec is the compact grid description. Each non-empty axis multiplies
// the grid; an empty axis contributes one cell along that dimension
// with the query default (machine "t3d", rates "paper", and so on).
// Axes that do not apply to the requested kind are rejected, so a
// typo'd spec fails loudly instead of silently sweeping nothing.
type Spec struct {
	// Kind selects the query type the grid expands to: "eval"
	// (default), "price", "plan" or "collective".
	Kind string `json:"kind,omitempty"`

	// Machines is the machine-profile axis (all kinds).
	Machines []string `json:"machines,omitempty"`

	// Eval axes (kind "eval"). Levels sweeps the hierarchy tier
	// ("intra-socket", "inter-socket", "inter-node") of hierarchical
	// machines; it needs calibrated rates, like the point query.
	Rates  []string `json:"rates,omitempty"`
	Exprs  []string `json:"exprs,omitempty"`
	Levels []string `json:"levels,omitempty"`

	// Ops is the operation axis (kinds "eval" and "price"). When Ops is
	// empty, Xs x Ys cross-produce the operations xQy.
	Ops []string `json:"ops,omitempty"`
	Xs  []string `json:"xs,omitempty"`
	Ys  []string `json:"ys,omitempty"`

	// Price axes (kind "price").
	Styles []string `json:"styles,omitempty"`
	Words  []int    `json:"words,omitempty"`
	Duplex bool     `json:"duplex,omitempty"`

	// Congestions applies to kinds "eval" and "price"; 0 selects the
	// machine default.
	Congestions []float64 `json:"congestions,omitempty"`

	// Plan axes (kind "plan"). Transposes, when set, sweeps n x n
	// transposes instead of redistributions and excludes Ns/Srcs/Dsts.
	Ns         []int    `json:"ns,omitempty"`
	Ps         []int    `json:"ps,omitempty"`
	Srcs       []string `json:"srcs,omitempty"`
	Dsts       []string `json:"dsts,omitempty"`
	Transposes []int    `json:"transposes,omitempty"`

	// Collective axes (kind "collective"). Collectives names the
	// operations ("all-to-all", "broadcast", "shift", "reduce");
	// Strategies the planner strategies ("pairwise", "doubling",
	// "hyper-systolic") — empty Strategies compares all strategies per
	// cell, so the row carries the winner. NodeCounts bounds the
	// participants (0 = the whole machine or level domain); Words (the
	// block size) and Levels are shared with the other kinds.
	Collectives []string `json:"collectives,omitempty"`
	Strategies  []string `json:"strategies,omitempty"`
	NodeCounts  []int    `json:"node_counts,omitempty"`

	// MaxCells overrides DefaultMaxCells, up to HardMaxCells. Grids
	// larger than the cap are rejected, never truncated.
	MaxCells int `json:"max_cells,omitempty"`
}

// badf returns a spec-validation error wrapping query.ErrBadRequest,
// so servers map it to 400 and CLIs to usage-error exit codes.
func badf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: sweep: %s", query.ErrBadRequest, fmt.Sprintf(format, args...))
}

// Cell is one expanded grid point: exactly one of Eval, Price, Plan
// or Collective is set, already canonicalized (defaults applied), so
// its fingerprint matches the equivalent point query's. The typed
// fields are the NDJSON wire schema; everything else dispatches
// through the query kind table.
type Cell struct {
	Index      int                      `json:"-"`
	Eval       *query.EvalRequest       `json:"eval,omitempty"`
	Price      *query.PriceRequest      `json:"price,omitempty"`
	Plan       *query.PlanRequest       `json:"plan,omitempty"`
	Collective *query.CollectiveRequest `json:"collective,omitempty"`
}

// request is the cell's one Cell→request accessor: its first set
// request in field order (checked last to first, so the first wins),
// and how many are set — a valid cell has exactly one.
func (c Cell) request() (req query.Request, n int) {
	if c.Collective != nil {
		req, n = c.Collective, n+1
	}
	if c.Plan != nil {
		req, n = c.Plan, n+1
	}
	if c.Price != nil {
		req, n = c.Price, n+1
	}
	if c.Eval != nil {
		req, n = c.Eval, n+1
	}
	return req, n
}

// Fingerprint is the cell's canonical cache key — identical to the
// fingerprint of the equivalent point query, so a sweep shares cache
// entries with the point endpoints.
func (c Cell) Fingerprint() string {
	if req, n := c.request(); n > 0 {
		return req.Fingerprint()
	}
	return "sweep|empty"
}

// Home is the cell's routing key — its kind's home key (query.Kind),
// identical to the equivalent point query's, so a router sends both to
// the replica that fits the cell's laws and caches its answer.
func (c Cell) Home() string {
	if req, n := c.request(); n > 0 {
		return query.KindOf(req).Home(req)
	}
	return c.Fingerprint()
}

// Exec answers the cell through the query core as an independent point
// query — the reference evaluation the batch path must reproduce byte
// for byte.
func (c Cell) Exec() (interface{}, error) {
	val, _, err := c.ExecBatch(nil)
	return val, err
}

// ExecBatch answers the cell through batch b; nil b is the point-query
// path. The bool reports whether the answer was fully analytic (every
// memory stage derived from a bitwise-verified word-count law, none
// engine-simulated) — provenance only: by the batch contract the
// response, including its rendered Text, is identical either way.
func (c Cell) ExecBatch(b *query.Batch) (interface{}, bool, error) {
	req, n := c.request()
	if n == 0 {
		return nil, false, badf("empty cell")
	}
	return query.KindOf(req).Answer(req, b)
}

// Row is one per-cell result. The request echo (the *Req field of the
// cell's kind) identifies the cell; exactly one response field (or Err)
// is set. The response is the same struct a point query returns, so its
// Text field is byte-identical to the CLI output for the same inputs.
type Row struct {
	Index  int  `json:"index"`
	Cached bool `json:"cached,omitempty"`
	// Analytic reports that this cell was answered from the batch's
	// closed-form word-count laws without any engine simulation. It is
	// provenance, not a result: analytic rows are bit-identical to
	// engine rows (TestSweepAnalyticBitIdentical). Cache hits report
	// false — a cached row is not an evaluation.
	Analytic bool   `json:"analytic,omitempty"`
	Err      string `json:"error,omitempty"`

	EvalReq       *query.EvalRequest       `json:"eval_request,omitempty"`
	PriceReq      *query.PriceRequest      `json:"price_request,omitempty"`
	PlanReq       *query.PlanRequest       `json:"plan_request,omitempty"`
	CollectiveReq *query.CollectiveRequest `json:"collective_request,omitempty"`

	Eval       *query.EvalResponse       `json:"eval,omitempty"`
	Price      *query.PriceResponse      `json:"price,omitempty"`
	Plan       *query.PlanResponse       `json:"plan,omitempty"`
	Collective *query.CollectiveResponse `json:"collective,omitempty"`
}

// Stats summarizes an executed sweep: how many rows were emitted, how
// many were served from a cache, how many were answered analytically,
// and how many carry an error.
type Stats struct {
	Cells    int `json:"cells"`
	Cached   int `json:"cached"`
	Analytic int `json:"analytic"`
	Failed   int `json:"failed"`
}

// Count folds one emitted row into the stats.
func (st *Stats) Count(r Row) {
	st.Cells++
	switch {
	case r.Err != "":
		st.Failed++
	case r.Cached:
		st.Cached++
	case r.Analytic:
		st.Analytic++
	}
}

// Summary is the terminal NDJSON line of a served sweep stream: the
// client knows the sweep finished (and whether it was cut short) by
// seeing done=true.
type Summary struct {
	Done bool `json:"done"`
	Stats
	Error string `json:"error,omitempty"`
}

// --- Expansion ---------------------------------------------------------

// orDefault returns axis, or a one-element axis of the zero value so
// the query core's Canon() applies its default.
func orDefault[T any](axis []T) []T {
	if len(axis) == 0 {
		return make([]T, 1)
	}
	return axis
}

// ops returns the operation axis: Ops verbatim, else Xs x Ys.
func (s Spec) ops() []string {
	if len(s.Ops) > 0 {
		return s.Ops
	}
	var out []string
	for _, x := range s.Xs {
		for _, y := range s.Ys {
			out = append(out, x+"Q"+y)
		}
	}
	return out
}

// kind returns the canonical kind name.
func (s Spec) kind() string {
	if s.Kind == "" {
		return "eval"
	}
	return s.Kind
}

// axis is one grid axis of a Spec: its JSON name and length.
type axis struct {
	name string
	n    int
}

// axes lists the spec's grid axes in Spec field order.
func (s Spec) axes() [18]axis {
	return [...]axis{
		{"machines", len(s.Machines)}, {"rates", len(s.Rates)}, {"exprs", len(s.Exprs)},
		{"levels", len(s.Levels)}, {"ops", len(s.Ops)}, {"xs", len(s.Xs)}, {"ys", len(s.Ys)},
		{"styles", len(s.Styles)}, {"words", len(s.Words)}, {"congestions", len(s.Congestions)},
		{"ns", len(s.Ns)}, {"ps", len(s.Ps)}, {"srcs", len(s.Srcs)}, {"dsts", len(s.Dsts)},
		{"transposes", len(s.Transposes)}, {"collectives", len(s.Collectives)},
		{"strategies", len(s.Strategies)}, {"node_counts", len(s.NodeCounts)},
	}
}

// kindAxes lists the axes each sweepable kind's grid uses; Expand
// rejects any other non-empty axis.
var kindAxes = map[string][]string{
	"eval":       {"machines", "rates", "exprs", "levels", "ops", "xs", "ys", "congestions"},
	"price":      {"machines", "ops", "xs", "ys", "styles", "words", "congestions"},
	"plan":       {"machines", "ns", "ps", "srcs", "dsts", "transposes"},
	"collective": {"machines", "levels", "words", "collectives", "strategies", "node_counts"},
}

// cap returns the effective cell cap for the spec.
func (s Spec) cap() int {
	if s.MaxCells <= 0 {
		return DefaultMaxCells
	}
	return min(s.MaxCells, HardMaxCells)
}

// Expand unfolds the grid into canonical cells, in a deterministic
// nested-axis order (machines outermost, sizes innermost). It rejects
// unknown kinds, axes that do not apply to the kind, empty grids, and
// grids larger than the cap — but it does not validate cell contents:
// an unknown machine name or a malformed operation becomes an error
// Row at run time, preserving partial-failure semantics.
func Expand(s Spec) ([]Cell, error) {
	var cells []Cell
	limit := s.cap()
	add := func(c Cell) error {
		if len(cells) >= limit {
			return badf("grid exceeds %d cells (cap %d; raise max_cells up to %d or split the sweep)",
				limit, limit, HardMaxCells)
		}
		c.Index = len(cells)
		cells = append(cells, c)
		return nil
	}

	kind := s.kind()
	uses, ok := kindAxes[kind]
	if !ok {
		return nil, badf("unknown kind %q (want eval, price, plan or collective)", s.Kind)
	}
	for _, a := range s.axes() {
		if a.n > 0 && !slices.Contains(uses, a.name) {
			return nil, badf("axis %q does not apply to kind %q", a.name, kind)
		}
	}

	switch kind {
	case "eval":
		ops := s.ops()
		if len(s.Exprs) == 0 && len(ops) == 0 {
			return nil, badf(`kind "eval" needs at least one of exprs, ops, or xs+ys`)
		}
		for _, m := range orDefault(s.Machines) {
			for _, rates := range orDefault(s.Rates) {
				for _, level := range orDefault(s.Levels) {
					for _, cong := range orDefault(s.Congestions) {
						for _, expr := range s.Exprs {
							r := query.EvalRequest{Machine: m, Rates: rates, Expr: expr, Congestion: cong, Level: level}.Canon()
							if err := add(Cell{Eval: &r}); err != nil {
								return nil, err
							}
						}
						for _, op := range ops {
							r := query.EvalRequest{Machine: m, Rates: rates, Op: op, Congestion: cong, Level: level}.Canon()
							if err := add(Cell{Eval: &r}); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}

	case "price":
		ops := s.ops()
		if len(ops) == 0 {
			return nil, badf(`kind "price" needs ops or xs+ys`)
		}
		for _, m := range orDefault(s.Machines) {
			for _, style := range orDefault(s.Styles) {
				for _, op := range ops {
					for _, cong := range orDefault(s.Congestions) {
						for _, words := range orDefault(s.Words) {
							x, y, err := splitOp(op)
							if err != nil {
								// Keep the malformed op as a cell so it
								// surfaces as an error row, not a lost cell.
								x, y = op, ""
							}
							r := query.PriceRequest{
								Machine: m, Style: style, X: x, Y: y,
								Words: words, Congestion: cong, Duplex: s.Duplex,
							}.Canon()
							if err := add(Cell{Price: &r}); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}

	case "plan":
		if len(s.Transposes) > 0 {
			if len(s.Ns)+len(s.Srcs)+len(s.Dsts) > 0 {
				return nil, badf("transposes excludes ns/srcs/dsts")
			}
			for _, m := range orDefault(s.Machines) {
				for _, tr := range s.Transposes {
					for _, p := range orDefault(s.Ps) {
						r := query.PlanRequest{Machine: m, Transpose: tr, P: p}.Canon()
						if err := add(Cell{Plan: &r}); err != nil {
							return nil, err
						}
					}
				}
			}
			break
		}
		for _, m := range orDefault(s.Machines) {
			for _, n := range orDefault(s.Ns) {
				for _, p := range orDefault(s.Ps) {
					for _, src := range orDefault(s.Srcs) {
						for _, dst := range orDefault(s.Dsts) {
							r := query.PlanRequest{Machine: m, N: n, P: p, Src: src, Dst: dst}.Canon()
							if err := add(Cell{Plan: &r}); err != nil {
								return nil, err
							}
						}
					}
				}
			}
		}

	case "collective":
		if len(s.Collectives) == 0 {
			return nil, badf(`kind "collective" needs at least one collective (all-to-all, broadcast, shift, reduce)`)
		}
		for _, m := range orDefault(s.Machines) {
			for _, coll := range s.Collectives {
				for _, strat := range orDefault(s.Strategies) {
					for _, level := range orDefault(s.Levels) {
						for _, nodes := range orDefault(s.NodeCounts) {
							for _, words := range orDefault(s.Words) {
								r := query.CollectiveRequest{
									Machine: m, Collective: coll, Strategy: strat,
									Nodes: nodes, Words: words, Level: level,
								}.Canon()
								if err := add(Cell{Collective: &r}); err != nil {
									return nil, err
								}
							}
						}
					}
				}
			}
		}

	}

	if len(cells) == 0 {
		return nil, badf("grid is empty")
	}
	return cells, nil
}

// CellsRequest is the explicit-cell form of a sweep: instead of a grid
// spec, the caller ships the expanded cells themselves. The router uses
// it to fan one sweep out by fingerprint shard — each replica receives
// exactly its cells, already canonical, and streams rows back in the
// order given so the router can re-merge deterministically.
type CellsRequest struct {
	Cells []Cell `json:"cells"`
}

// PrepareCells validates an explicit cell list (each cell must carry
// exactly one request; the list is bounded like a grid expansion) and
// assigns sequential indices. limit <= 0 selects HardMaxCells.
func PrepareCells(cells []Cell, limit int) error {
	if limit <= 0 {
		limit = HardMaxCells
	}
	if len(cells) == 0 {
		return badf("no cells")
	}
	if len(cells) > limit {
		return badf("%d cells exceeds the cap %d", len(cells), limit)
	}
	for i := range cells {
		if _, set := cells[i].request(); set != 1 {
			return badf("cell %d must carry exactly one of eval, price, plan or collective", i)
		}
		cells[i].Index = i
	}
	return nil
}

// splitOp splits "xQy" without validating the pattern grammar (the
// query core does that per cell).
func splitOp(op string) (x, y string, err error) {
	for i := 0; i < len(op); i++ {
		if op[i] == 'Q' {
			if i == 0 || i == len(op)-1 {
				break
			}
			return op[:i], op[i+1:], nil
		}
	}
	return "", "", badf("invalid operation %q (want xQy)", op)
}

// --- Execution ---------------------------------------------------------

// Runner executes one cell against the sweep's shared batch context b
// (nil when Options.Engine disabled it), returning the response value
// (the cell kind's answer, as query.Kind.Answer returns it), whether it was
// served from a cache, whether it was answered analytically, and the
// cell's error if it is invalid or fails.
type Runner func(ctx context.Context, b *query.Batch, c Cell) (val interface{}, cached, analytic bool, err error)

// Options parameterizes Run. The zero value runs cells on a private
// goroutine pool with a per-sweep memo cache and a per-sweep batch
// context.
type Options struct {
	// Runner executes one cell; nil selects DirectRunner().
	Runner Runner
	// Workers bounds the chunks in flight at once (default GOMAXPROCS).
	Workers int
	// ChunkSize is the number of cells per shard; 0 picks a size that
	// yields about four chunks per worker.
	ChunkSize int
	// Submit, when set, routes one chunk's execution onto an external
	// executor (the serve worker pool) instead of a private goroutine.
	// It must either run the closure (on any goroutine) or return an
	// error; Run still bounds the chunks in flight by Workers.
	Submit func(ctx context.Context, run func()) error
	// Engine disables the shared batch context: every cell is evaluated
	// as an independent point query — machine re-resolved, rate table
	// rebuilt, every memory stage engine-simulated. This is the pre-batch
	// behavior; the differential tests and `ctmodel -sweep-engine` use it
	// as the reference the batch path must match byte for byte.
	Engine bool
}

func (o Options) withDefaults(cells int) Options {
	if o.Runner == nil {
		o.Runner = DirectRunner()
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = max(1, min(64, (cells+o.Workers*4-1)/(o.Workers*4)))
	}
	return o
}

// DirectRunner executes cells in-process with a sweep-local memo, so
// duplicate cells within one sweep (or across sweeps sharing the
// runner) are computed once — concurrent duplicates included: the
// first computes, the rest wait for it and report cached. The serve
// subsystem supplies its own Runner backed by the process-wide
// fingerprint LRU instead.
func DirectRunner() Runner {
	type result struct {
		val      interface{}
		analytic bool
		err      error
	}
	var memo once.Map[string, result]
	return func(ctx context.Context, b *query.Batch, c Cell) (interface{}, bool, bool, error) {
		computed := false
		r := memo.Get(c.Fingerprint(), func() result {
			computed = true
			val, analytic, err := c.ExecBatch(b)
			return result{val, analytic, err}
		})
		return r.val, !computed, computed && r.analytic, r.err
	}
}

// NewRow folds one executed cell into its row: the cell's request echo,
// then its answer, or its error (an error row is never cached or
// analytic). It is the one row constructor, shared by Run and by the
// router's rows for unreachable shards.
func NewRow(c Cell, val interface{}, cached, analytic bool, err error) Row {
	row := Row{Index: c.Index, Cached: cached, Analytic: analytic,
		EvalReq: c.Eval, PriceReq: c.Price, PlanReq: c.Plan, CollectiveReq: c.Collective}
	if err != nil {
		row.Err = err.Error()
		row.Cached, row.Analytic = false, false
		return row
	}
	switch v := val.(type) {
	case query.EvalResponse:
		row.Eval = &v
	case query.PriceResponse:
		row.Price = &v
	case query.PlanResponse:
		row.Plan = &v
	case query.CollectiveResponse:
		row.Collective = &v
	default:
		row.Err = fmt.Sprintf("sweep: unexpected result type %T", val)
	}
	return row
}

// Run executes the cells and calls emit once per cell, in cell-index
// order (rows stream as cells complete, with head-of-line ordering so
// output is deterministic). Cells are sharded into chunks; at most
// Workers chunks are in flight at once. A failing cell yields an error
// Row and the sweep continues. Run returns early only when ctx is
// cancelled (the context error is returned and unemitted cells are
// dropped) or when emit itself fails; Stats counts emitted rows.
//
// emit is called from the Run goroutine only, never concurrently.
func Run(ctx context.Context, cells []Cell, opt Options, emit func(Row) error) (Stats, error) {
	opt = opt.withDefaults(len(cells))
	// One batch context per sweep: machines resolve and rate tables
	// convert once per outermost shard of work, and every cell shares
	// the batch's comm session (stage memoization + analytic laws).
	var batch *query.Batch
	if !opt.Engine {
		batch = query.NewBatch()
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	rowCh := make(chan Row, opt.Workers*opt.ChunkSize)
	sem := make(chan struct{}, opt.Workers)
	var wg sync.WaitGroup

	// Dispatcher: shard cells into chunks, at most Workers in flight.
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		for start := 0; start < len(cells); start += opt.ChunkSize {
			chunk := cells[start:min(start+opt.ChunkSize, len(cells))]
			select {
			case sem <- struct{}{}:
			case <-cctx.Done():
				return
			}
			run := func() {
				defer func() { <-sem; wg.Done() }()
				for _, c := range chunk {
					if cctx.Err() != nil {
						return
					}
					val, cached, analytic, err := opt.Runner(cctx, batch, c)
					select {
					case rowCh <- NewRow(c, val, cached, analytic, err):
					case <-cctx.Done():
						return
					}
				}
			}
			wg.Add(1)
			if opt.Submit != nil {
				if err := opt.Submit(cctx, run); err != nil {
					wg.Done()
					<-sem
					return
				}
			} else {
				go run()
			}
		}
	}()
	go func() {
		<-dispatched
		wg.Wait()
		close(rowCh)
	}()

	// Ordered emission: buffer out-of-order rows, emit sequentially.
	var stats Stats
	var emitErr error
	pending := map[int]Row{}
	next := 0
	for row := range rowCh {
		pending[row.Index] = row
		for {
			r, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if emitErr != nil {
				continue // draining rowCh after a failed emit
			}
			if err := emit(r); err != nil {
				emitErr = err
				cancel() // stop the workers; drain rowCh below
				continue
			}
			stats.Count(r)
		}
	}
	if emitErr != nil {
		return stats, emitErr
	}
	if err := ctx.Err(); err != nil && next < len(cells) {
		return stats, err
	}
	return stats, nil
}

// Execute expands the spec and runs it — the one-call form the facade
// and CLI use.
func Execute(ctx context.Context, s Spec, opt Options, emit func(Row) error) (Stats, error) {
	cells, err := Expand(s)
	if err != nil {
		return Stats{}, err
	}
	return Run(ctx, cells, opt, emit)
}
