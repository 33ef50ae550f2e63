// Package query is the shared cost-query core behind cmd/ctmodel,
// cmd/hpfplan and the serve subsystem (internal/serve). A query is what
// the paper's compiler asks at planning time (§2.1-2.2): evaluate a
// copy-transfer expression, price a communication operation, or derive
// and price a redistribution plan.
//
// Every query type renders a Text field that is byte-identical to the
// corresponding CLI output (ctmodel for Eval, hpfplan for Plan) — the
// determinism contract that lets a served answer be diffed against a
// local run. The CLIs delegate here, so the contract holds by
// construction; golden tests in cmd/ctmodel, cmd/hpfplan and
// internal/serve enforce it end to end.
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/collective"
	"ctcomm/internal/comm"
	"ctcomm/internal/distrib"
	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/model"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
)

// ErrBadRequest marks validation failures: the query itself is
// malformed (unknown machine, non-positive size, bad expression), as
// opposed to an execution failure. Servers map it to HTTP 400 and CLIs
// to usage-error exit codes.
var ErrBadRequest = errors.New("bad request")

// badf returns a validation error wrapping ErrBadRequest.
func badf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// ResolveMachine maps a CLI/API machine name to a built-in profile.
// Accepted spellings: "t3d", "cray", "cray t3d", "paragon", "intel",
// "intel paragon", "cluster", "multicore cluster", "xe6", "cray xe6"
// (case-insensitive), plus exact profile names.
func ResolveMachine(name string) (*machine.Machine, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "t3d", "cray", "cray t3d":
		return machine.T3D(), nil
	case "paragon", "intel", "intel paragon":
		return machine.Paragon(), nil
	case "cluster", "multicore", "multicore cluster":
		return machine.MulticoreCluster(), nil
	case "xe6", "xe", "cray xe6":
		return machine.CrayXE6(), nil
	}
	if m := machine.ByName(name); m != nil {
		return m, nil
	}
	return nil, badf("unknown machine %q (valid names: %s)", name, validMachineNames())
}

// validMachineNames lists every accepted machine spelling: the short
// alias of each built-in profile plus its exact profile name — so the
// "unknown machine" error tells the user what to type instead.
func validMachineNames() string {
	aliases := map[string]string{
		"Cray T3D":          "t3d",
		"Intel Paragon":     "paragon",
		"Multicore Cluster": "cluster",
		"Cray XE6":          "xe6",
	}
	var names []string
	for _, m := range machine.AllProfiles() {
		if a, ok := aliases[m.Name]; ok {
			names = append(names, a)
		}
		names = append(names, strconv.Quote(m.Name))
	}
	return strings.Join(names, ", ")
}

// ParseOp splits an xQy operation label such as "1Q64" or "wQw".
func ParseOp(op string) (x, y pattern.Spec, err error) {
	i := strings.IndexByte(op, 'Q')
	if i <= 0 || i == len(op)-1 {
		return x, y, badf("invalid operation %q (want xQy, e.g. 1Q64)", op)
	}
	x, err = pattern.ParseSpec(op[:i])
	if err != nil {
		return x, y, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	y, err = pattern.ParseSpec(op[i+1:])
	if err != nil {
		return x, y, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return x, y, nil
}

// parseLevel resolves an optional hierarchy-level spelling against m:
// the empty string means "default" (nil), anything else must name a
// tier of a hierarchical machine.
func parseLevel(level string, m *machine.Machine) (*netsim.Level, error) {
	if strings.TrimSpace(level) == "" {
		return nil, nil
	}
	l, err := netsim.ParseLevel(level)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if m.Net.Hier == nil {
		return nil, badf("machine %q is a flat profile with no hierarchy levels", m.Name)
	}
	return &l, nil
}

// rateTable resolves the "paper" or "calibrated" rate table for m,
// optionally pinned to one hierarchy tier (calibrated only: the paper
// measured flat 1995 machines).
func rateTable(rates string, m *machine.Machine, level *netsim.Level) (*model.RateTable, error) {
	switch rates {
	case "paper":
		if level != nil {
			return nil, badf("hierarchy levels need -rates calibrated (the paper tables are flat)")
		}
		rt := model.PaperTables()[m.Name]
		if rt == nil {
			return nil, badf("no paper rate table for machine %q", m.Name)
		}
		return rt, nil
	case "calibrated":
		if level != nil {
			return calibrate.RateTableForAt(m, *level), nil
		}
		return calibrate.RateTableFor(m), nil
	default:
		return nil, badf("unknown -rates %q (want paper or calibrated)", rates)
	}
}

// --- Eval: the ctmodel query ------------------------------------------

// EvalRequest evaluates a copy-transfer expression or prices a
// communication operation xQy against a rate table, mirroring
// cmd/ctmodel flag for flag.
type EvalRequest struct {
	// Machine is a built-in profile name; empty means "t3d".
	Machine string `json:"machine,omitempty"`
	// Rates selects the rate table: "paper" (default) or "calibrated".
	Rates string `json:"rates,omitempty"`
	// Expr is a copy-transfer expression, e.g. "wC1 o (1S0 || Nd || 0D1)".
	Expr string `json:"expr,omitempty"`
	// Op is a communication operation xQy, e.g. "1Q64"; both the
	// buffer-packing and chained estimates are computed.
	Op string `json:"op,omitempty"`
	// List requests the rate table itself instead of an evaluation.
	List bool `json:"list,omitempty"`
	// Congestion is the network congestion factor; values below 1 select
	// the machine default.
	Congestion float64 `json:"congestion,omitempty"`
	// Level pins the evaluation to one hierarchy tier of a hierarchical
	// machine ("intra-socket", "inter-socket", "inter-node"); empty uses
	// the machine's flat/inter-node view. Requires calibrated rates.
	Level string `json:"level,omitempty"`

	// M overrides machine resolution (cmd/ctmodel -machine-file). It is
	// CLI-only plumbing: never serialized and excluded from fingerprints,
	// so served queries always name a built-in profile.
	M *machine.Machine `json:"-"`
}

// Canon returns the request with defaults applied.
func (r EvalRequest) Canon() EvalRequest {
	if r.Machine == "" {
		r.Machine = "t3d"
	}
	if r.Rates == "" {
		r.Rates = "paper"
	}
	return r
}

// Fingerprint canonically keys the request for result caching. Two
// requests with equal fingerprints produce byte-identical responses.
func (r EvalRequest) Fingerprint() string {
	c := r.Canon()
	return fmt.Sprintf("eval|%s|%s|%s|%s|%t|%g|%s",
		strings.ToLower(strings.TrimSpace(c.Machine)), c.Rates, c.Expr, c.Op, c.List, c.Congestion,
		strings.ToLower(strings.TrimSpace(c.Level)))
}

// OpEstimate is one style's model estimate of an operation.
type OpEstimate struct {
	Expr string  `json:"expr"`
	MBps float64 `json:"mbps"`
}

// EvalResponse reports one evaluated query. Text is byte-identical to
// cmd/ctmodel's stdout for the same inputs.
type EvalResponse struct {
	Machine    string  `json:"machine"`
	Rates      string  `json:"rates"`
	Congestion float64 `json:"congestion"`
	// Level is the canonical tier spelling when the request pinned one.
	Level string `json:"level,omitempty"`
	// Expr and MBps are set for expression queries.
	Expr string  `json:"expr,omitempty"`
	MBps float64 `json:"mbps,omitempty"`
	// Packed/Chained are set for operation (xQy) queries; Chained is nil
	// when the machine cannot chain the destination pattern.
	Packed         *OpEstimate `json:"buffer_packing,omitempty"`
	Chained        *OpEstimate `json:"chained,omitempty"`
	ChainedErr     string      `json:"chained_error,omitempty"`
	Bottleneck     string      `json:"bottleneck,omitempty"`
	BottleneckMBps float64     `json:"bottleneck_mbps,omitempty"`
	// Table is set for List queries: key -> MB/s.
	Table map[string]float64 `json:"table,omitempty"`
	Text  string             `json:"text"`
}

// Eval answers an EvalRequest. Exactly one of List, Expr or Op must be
// set (checked in that order, matching ctmodel's flag precedence).
func Eval(r EvalRequest) (EvalResponse, error) {
	resp, _, err := eval(r, nil)
	return resp, err
}

// eval is the single Eval code path; a nil batch resolves the machine
// and rebuilds the rate table per call (classic point query), a
// non-nil one shares both across the batch. Identical responses either
// way. Eval queries are pure model arithmetic (no per-cell engine
// simulation to elide), so the analytic marker is always false — only
// priced cells can be analytic.
func eval(r EvalRequest, b *Batch) (EvalResponse, bool, error) {
	r = r.Canon()
	m := r.M
	if m == nil {
		var err error
		if m, err = b.Machine(r.Machine); err != nil {
			return EvalResponse{}, false, err
		}
	}
	cong := r.Congestion
	if cong < 1 {
		cong = m.DefaultCongestion
	}
	level, err := parseLevel(r.Level, m)
	if err != nil {
		return EvalResponse{}, false, err
	}
	rt, err := b.table(r.Rates, m, level)
	if err != nil {
		return EvalResponse{}, false, err
	}

	resp := EvalResponse{Machine: m.Name, Rates: r.Rates, Congestion: cong}
	if level != nil {
		resp.Level = level.String()
	}
	var text strings.Builder

	switch {
	case r.List:
		resp.Table = map[string]float64{}
		fmt.Fprintf(&text, "rate table %s:\n", rt.Name)
		for _, key := range rt.Keys() {
			term, err := model.ParseTerm(key)
			if err != nil {
				continue
			}
			rate, err := rt.Rate(term)
			if err != nil {
				continue
			}
			resp.Table[key] = rate
			fmt.Fprintf(&text, "  %-8s %7.1f MB/s\n", key, rate)
		}

	case r.Expr != "":
		e, err := model.Parse(r.Expr)
		if err != nil {
			return EvalResponse{}, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		rate, err := model.Evaluate(e, rt, cong)
		if err != nil {
			return EvalResponse{}, false, err
		}
		resp.Expr, resp.MBps = e.String(), rate
		if level != nil {
			fmt.Fprintf(&text, "|%s| = %.1f MB/s  (machine %s, rates %s, congestion %.0f, level %s)\n",
				e, rate, m.Name, r.Rates, cong, level)
		} else {
			fmt.Fprintf(&text, "|%s| = %.1f MB/s  (machine %s, rates %s, congestion %.0f)\n",
				e, rate, m.Name, r.Rates, cong)
		}

	case r.Op != "":
		x, y, err := ParseOp(r.Op)
		if err != nil {
			return EvalResponse{}, false, err
		}
		caps := model.CapsOf(m)
		packedE := model.BufferPacking(caps, x, y)
		packed, err := model.Evaluate(packedE, rt, cong)
		if err != nil {
			return EvalResponse{}, false, err
		}
		resp.Packed = &OpEstimate{Expr: packedE.String(), MBps: packed}
		fmt.Fprintf(&text, "buffer-packing: |%s| = %.1f MB/s\n", packedE, packed)
		chainedE, err := model.Chained(caps, x, y)
		if err != nil {
			resp.ChainedErr = err.Error()
			fmt.Fprintf(&text, "chained:        not implementable: %v\n", err)
			break
		}
		chained, err := model.Evaluate(chainedE, rt, cong)
		if err != nil {
			return EvalResponse{}, false, err
		}
		resp.Chained = &OpEstimate{Expr: chainedE.String(), MBps: chained}
		fmt.Fprintf(&text, "chained:        |%s| = %.1f MB/s  (%.2fx)\n", chainedE, chained, chained/packed)
		if leaf, rate, err := model.Bottleneck(chainedE, rt, cong); err == nil {
			resp.Bottleneck, resp.BottleneckMBps = leaf.String(), rate
			fmt.Fprintf(&text, "bottleneck:     %s at %.1f MB/s\n", leaf, rate)
		}

	default:
		return EvalResponse{}, false, badf("one of expr, op or list is required")
	}

	resp.Text = text.String()
	return resp, false, nil
}

// evalSize sizes an eval answer for the result cache: the rendered
// Text and expressions plus the structured estimates and rate table.
func evalSize(v EvalResponse) int64 {
	n := int64(len(v.Text) + len(v.Expr) + len(v.Machine) + len(v.ChainedErr) + len(v.Bottleneck))
	if v.Packed != nil {
		n += int64(32 + len(v.Packed.Expr))
	}
	if v.Chained != nil {
		n += int64(32 + len(v.Chained.Expr))
	}
	for k := range v.Table {
		n += int64(len(k) + 32)
	}
	return n
}

// --- Plan: the hpfplan query ------------------------------------------

// PlanRequest derives and prices an HPF redistribution (or transpose)
// plan, mirroring cmd/hpfplan flag for flag.
type PlanRequest struct {
	Machine string `json:"machine,omitempty"`
	// N is the 1D array length, P the processor count.
	N int `json:"n,omitempty"`
	P int `json:"p,omitempty"`
	// Src and Dst are HPF distributions: BLOCK, CYCLIC or CYCLIC(b).
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Transpose, when positive, plans an n x n transpose instead
	// (paper Figure 9).
	Transpose int `json:"transpose,omitempty"`
}

// MaxPlanElements bounds the array a plan request may describe: n for
// a redistribution, transpose² for a transpose. distrib.Plan allocates
// about 53 bytes per element before any pricing, so the bound caps one
// request near 56 MiB while admitting the 65,536-element default and
// the 1024x1024 transpose of cmd/hpfplan's usage.
const MaxPlanElements = 1 << 20

// Canon returns the request with cmd/hpfplan's flag defaults applied.
func (r PlanRequest) Canon() PlanRequest {
	if r.Machine == "" {
		r.Machine = "t3d"
	}
	if r.N == 0 {
		r.N = 65536
	}
	if r.P == 0 {
		r.P = 64
	}
	if r.Src == "" {
		r.Src = "BLOCK"
	}
	if r.Dst == "" {
		r.Dst = "CYCLIC"
	}
	return r
}

// Fingerprint canonically keys the request for result caching.
func (r PlanRequest) Fingerprint() string {
	c := r.Canon()
	return fmt.Sprintf("plan|%s|%d|%d|%s|%s|%d",
		strings.ToLower(strings.TrimSpace(c.Machine)), c.N, c.P,
		strings.ToUpper(strings.TrimSpace(c.Src)), strings.ToUpper(strings.TrimSpace(c.Dst)), c.Transpose)
}

// StyleReport is one priced implementation of a plan.
type StyleReport struct {
	MBps      float64 `json:"mbps"`
	ElapsedUs float64 `json:"elapsed_us"`
}

// PlanResponse reports one planned-and-priced redistribution. Text is
// byte-identical to cmd/hpfplan's stdout for the same inputs.
type PlanResponse struct {
	Machine   string         `json:"machine"`
	Operation string         `json:"operation"`
	Transfers int            `json:"transfers"`
	Words     int            `json:"words"`
	Patterns  map[string]int `json:"patterns,omitempty"`
	// Packed/Chained are nil when the layouts agree (no communication).
	Packed         *StyleReport `json:"buffer_packing,omitempty"`
	Chained        *StyleReport `json:"chained,omitempty"`
	ChainedErr     string       `json:"chained_error,omitempty"`
	Recommendation string       `json:"recommendation,omitempty"`
	Text           string       `json:"text"`
}

// ParseDist reads "BLOCK", "CYCLIC" or "CYCLIC(b)" (case-insensitive).
func ParseDist(text string, n, p int) (distrib.Distribution, error) {
	t := strings.ToUpper(strings.TrimSpace(text))
	switch {
	case t == "BLOCK":
		return distrib.NewBlock(n, p)
	case t == "CYCLIC":
		return distrib.NewCyclic(n, p)
	case strings.HasPrefix(t, "CYCLIC(") && strings.HasSuffix(t, ")"):
		b, err := strconv.Atoi(t[len("CYCLIC(") : len(t)-1])
		if err != nil {
			return distrib.Distribution{}, badf("invalid block size in %q", text)
		}
		return distrib.NewBlockCyclic(n, p, b)
	default:
		return distrib.Distribution{}, badf("unknown distribution %q (want BLOCK, CYCLIC or CYCLIC(b))", text)
	}
}

// Plan answers a PlanRequest.
func Plan(r PlanRequest) (PlanResponse, error) {
	resp, _, err := plan(r, nil)
	return resp, err
}

// plan is the single Plan code path; a non-nil batch shares machine
// resolution. Plan execution prices whole redistribution plans
// (congestion derived from the plan's own traffic), which the analytic
// laws do not model: it always runs the engine, so the analytic marker
// is always false.
func plan(r PlanRequest, b *Batch) (PlanResponse, bool, error) {
	r = r.Canon()
	if r.Transpose < 0 {
		return PlanResponse{}, false, badf("transpose must be positive, got %d", r.Transpose)
	}
	if r.Transpose > MaxPlanElements/max(r.Transpose, 1) { // transpose² > MaxPlanElements, without overflow
		return PlanResponse{}, false, badf("transpose %d exceeds the %d-element plan limit", r.Transpose, MaxPlanElements)
	}
	if r.Transpose == 0 {
		if r.N <= 0 {
			return PlanResponse{}, false, badf("array size n must be positive, got %d", r.N)
		}
		if r.N > MaxPlanElements {
			return PlanResponse{}, false, badf("array size n %d exceeds the %d-element plan limit", r.N, MaxPlanElements)
		}
	}
	if r.P <= 0 {
		return PlanResponse{}, false, badf("processor count p must be positive, got %d", r.P)
	}
	if r.P > collective.MaxNodes {
		return PlanResponse{}, false, badf("processor count p %d exceeds the %d-processor limit", r.P, collective.MaxNodes)
	}
	m, err := b.Machine(r.Machine)
	if err != nil {
		return PlanResponse{}, false, err
	}

	var plan []distrib.Transfer
	var what string
	if r.Transpose > 0 {
		n := r.Transpose
		// §5.2: pick the orientation that suits the machine — strided
		// stores on the T3D (write queue), strided loads on the Paragon
		// (prefetch queue).
		stridedLoads := m.CoProcessor // the Paragon profile marker
		plan, err = distrib.TransposePlan(n, r.P, stridedLoads)
		if err != nil {
			return PlanResponse{}, false, err
		}
		orient := "1Qn (contiguous loads, strided stores)"
		if stridedLoads {
			orient = "nQ1 (strided loads, contiguous stores)"
		}
		what = fmt.Sprintf("transpose of a %dx%d array, orientation %s", n, n, orient)
	} else {
		src, err := ParseDist(r.Src, r.N, r.P)
		if err != nil {
			return PlanResponse{}, false, fmt.Errorf("src: %w", err)
		}
		dst, err := ParseDist(r.Dst, r.N, r.P)
		if err != nil {
			return PlanResponse{}, false, fmt.Errorf("dst: %w", err)
		}
		plan, err = distrib.Plan(src, dst)
		if err != nil {
			return PlanResponse{}, false, err
		}
		what = fmt.Sprintf("redistribution %s -> %s of %d elements", src, dst, r.N)
	}

	resp := PlanResponse{Machine: m.Name, Operation: what, Transfers: len(plan)}
	var text strings.Builder
	fmt.Fprintf(&text, "machine: %s\n", m)
	fmt.Fprintf(&text, "operation: %s\n", what)
	if len(plan) == 0 {
		fmt.Fprintln(&text, "no communication required: the layouts agree")
		resp.Text = text.String()
		return resp, false, nil
	}

	// Summarize the plan.
	patterns := map[string]int{}
	words := 0
	for _, t := range plan {
		patterns[t.Src.String()+"Q"+t.Dst.String()]++
		words += t.Words()
	}
	resp.Patterns, resp.Words = patterns, words
	fmt.Fprintf(&text, "plan: %d transfers, %d words total, patterns %v\n",
		len(plan), words, patterns)

	// Price both styles.
	packed, err := distrib.Execute(m, plan, distrib.ExecuteOptions{Style: comm.BufferPacking})
	if err != nil {
		return PlanResponse{}, false, err
	}
	chained, chainedErr := distrib.Execute(m, plan, distrib.ExecuteOptions{Style: comm.Chained})

	resp.Packed = &StyleReport{MBps: packed.MBps(), ElapsedUs: packed.ElapsedNs / 1e3}
	fmt.Fprintf(&text, "buffer-packing: %6.1f MB/s per node  (%.1f us)\n",
		packed.MBps(), packed.ElapsedNs/1e3)
	if chainedErr != nil {
		resp.ChainedErr = chainedErr.Error()
		resp.Recommendation = "buffer-packing"
		fmt.Fprintf(&text, "chained:        not implementable: %v\n", chainedErr)
		fmt.Fprintln(&text, "recommendation: buffer-packing (no capable deposit engine)")
		resp.Text = text.String()
		return resp, false, nil
	}
	resp.Chained = &StyleReport{MBps: chained.MBps(), ElapsedUs: chained.ElapsedNs / 1e3}
	fmt.Fprintf(&text, "chained:        %6.1f MB/s per node  (%.1f us)\n",
		chained.MBps(), chained.ElapsedNs/1e3)
	if chained.MBps() > packed.MBps() {
		resp.Recommendation = "chained"
		fmt.Fprintf(&text, "recommendation: chained transfers (%.2fx faster)\n",
			chained.MBps()/packed.MBps())
	} else {
		resp.Recommendation = "buffer-packing"
		fmt.Fprintf(&text, "recommendation: buffer-packing (%.2fx faster)\n",
			packed.MBps()/chained.MBps())
	}
	resp.Text = text.String()
	return resp, false, nil
}

// planSize sizes a plan answer for the result cache: the rendered Text
// plus the pattern histogram and the two style reports.
func planSize(v PlanResponse) int64 {
	n := int64(len(v.Text) + len(v.Machine) + len(v.Operation) + len(v.ChainedErr) + len(v.Recommendation))
	for k := range v.Patterns {
		n += int64(len(k) + 32)
	}
	return n + 64
}

// --- Price: the simulated-operation query ------------------------------

// PriceRequest simulates one communication operation xQy end to end on
// the machine (the "measured" side of the paper's comparisons), through
// internal/comm.
type PriceRequest struct {
	Machine string `json:"machine,omitempty"`
	// Style is "buffer-packing", "chained", "direct" or "pvm"
	// (default "buffer-packing").
	Style string `json:"style,omitempty"`
	// X and Y are the source and destination patterns ("1", "64", "w").
	X string `json:"x"`
	Y string `json:"y"`
	// Words is the number of 64-bit payload words (default 1<<17).
	Words int `json:"words,omitempty"`
	// Congestion below 1 selects the machine default.
	Congestion float64 `json:"congestion,omitempty"`
	// Duplex simulates every node sending and receiving at once.
	Duplex bool `json:"duplex,omitempty"`
}

// Canon returns the request with defaults applied.
func (r PriceRequest) Canon() PriceRequest {
	if r.Machine == "" {
		r.Machine = "t3d"
	}
	if r.Style == "" {
		r.Style = comm.BufferPacking.String()
	}
	if r.Words == 0 {
		r.Words = calibrate.DefaultWords
	}
	return r
}

// Fingerprint canonically keys the request for result caching.
func (r PriceRequest) Fingerprint() string {
	c := r.Canon()
	return fmt.Sprintf("price|%s|%s|%s|%s|%d|%g|%t",
		strings.ToLower(strings.TrimSpace(c.Machine)), c.Style, c.X, c.Y, c.Words, c.Congestion, c.Duplex)
}

// PriceStage is one component of the assembled operation.
type PriceStage struct {
	Resource string  `json:"resource"`
	Name     string  `json:"name"`
	MBps     float64 `json:"mbps"`
	Serial   bool    `json:"serial"`
}

// PriceResponse reports one simulated operation.
type PriceResponse struct {
	Machine      string       `json:"machine"`
	Style        string       `json:"style"`
	Op           string       `json:"op"`
	Words        int          `json:"words"`
	PayloadBytes int64        `json:"payload_bytes"`
	ElapsedUs    float64      `json:"elapsed_us"`
	MBps         float64      `json:"mbps"`
	Congestion   float64      `json:"congestion"`
	Stages       []PriceStage `json:"stages,omitempty"`
	Text         string       `json:"text"`
}

// Price answers a PriceRequest.
func Price(r PriceRequest) (PriceResponse, error) {
	resp, _, err := price(r, nil)
	return resp, err
}

// price is the single Price code path; a nil batch simulates on a
// fresh node per stage (classic point query), a non-nil one runs
// through the batch's comm session, which memoizes stages and answers
// law-covered word counts analytically. The bool reports whether the
// result is fully analytic (all memory stages law-derived, none
// engine-simulated) — provenance only; responses are bit-identical
// either way by the session's contract.
func price(r PriceRequest, b *Batch) (PriceResponse, bool, error) {
	r = r.Canon()
	if r.Words <= 0 {
		return PriceResponse{}, false, badf("words must be positive, got %d", r.Words)
	}
	if r.Words > law.MaxWords {
		return PriceResponse{}, false, badf("words must be at most %d, got %d", law.MaxWords, r.Words)
	}
	m, err := b.Machine(r.Machine)
	if err != nil {
		return PriceResponse{}, false, err
	}
	style, err := comm.ParseStyle(r.Style)
	if err != nil {
		return PriceResponse{}, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	x, err := pattern.ParseSpec(r.X)
	if err != nil {
		return PriceResponse{}, false, fmt.Errorf("%w: x: %v", ErrBadRequest, err)
	}
	y, err := pattern.ParseSpec(r.Y)
	if err != nil {
		return PriceResponse{}, false, fmt.Errorf("%w: y: %v", ErrBadRequest, err)
	}
	opt := comm.Options{Words: r.Words, Congestion: r.Congestion, Duplex: r.Duplex}
	var res comm.Result
	if b != nil {
		res, err = b.session.Run(m, style, x, y, opt)
	} else {
		res, err = comm.Run(m, style, x, y, opt)
	}
	if err != nil {
		return PriceResponse{}, false, err
	}
	analytic := res.AnalyticStages > 0 && res.EngineStages == 0
	resp := PriceResponse{
		Machine:      res.Machine,
		Style:        res.Style.String(),
		Op:           x.String() + "Q" + y.String(),
		Words:        r.Words,
		PayloadBytes: res.PayloadBytes,
		ElapsedUs:    res.ElapsedNs / 1e3,
		MBps:         res.MBps(),
		Congestion:   res.Congestion,
	}
	for _, st := range res.Stages {
		resp.Stages = append(resp.Stages, PriceStage{
			Resource: st.Resource, Name: st.Name, MBps: st.Rate, Serial: st.Serial,
		})
	}
	resp.Text = fmt.Sprintf("%s %s on %s: %.1f MB/s per node  (%.1f us, %d words, congestion %.0f)\n",
		resp.Style, resp.Op, resp.Machine, resp.MBps, resp.ElapsedUs, resp.Words, resp.Congestion)
	return resp, analytic, nil
}

// priceSize sizes a price answer for the result cache: the rendered
// Text plus one fixed-size record per stage.
func priceSize(v PriceResponse) int64 {
	n := int64(len(v.Text) + len(v.Machine) + len(v.Style) + len(v.Op))
	for _, st := range v.Stages {
		n += int64(48 + len(st.Resource) + len(st.Name))
	}
	return n
}
