package query

import (
	"fmt"
	"strings"

	"ctcomm/internal/collective"
	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
)

// --- Collective: the schedule-comparator query -------------------------

// CollectiveRequest plans a collective operation (all-to-all,
// broadcast, shift, reduce) as phase schedules of copy-transfer
// primitives and evaluates one or all planner strategies on a machine
// — mirroring cmd/ctmodel's -collective flag family.
type CollectiveRequest struct {
	// Machine is the profile to evaluate on. Empty means "t3d".
	Machine string `json:"machine,omitempty"`
	// Collective names the operation: all-to-all, broadcast, shift or
	// reduce.
	Collective string `json:"collective"`
	// Strategy picks one planner (pairwise, doubling, hyper-systolic);
	// empty compares all strategies and reports the winner.
	Strategy string `json:"strategy,omitempty"`
	// Nodes bounds the participants to the first Nodes simulator nodes;
	// zero means every node of the machine (or of the Level domain).
	Nodes int `json:"nodes,omitempty"`
	// Words is the block size in 64-bit words. Zero means 256 (2 KB
	// blocks).
	Words int `json:"words,omitempty"`
	// Offset is the shift distance (shift only). Zero means 1.
	Offset int `json:"offset,omitempty"`
	// Level restricts the collective to one hierarchy tier of a
	// hierarchical machine: intra-socket runs it over the cores of one
	// socket, inter-socket over one multi-core node, inter-node (or
	// empty) over the whole machine.
	Level string `json:"level,omitempty"`
	// Engine forces the event engine for every phase instead of the
	// hybrid evaluator. Provenance only: the answers are bit-identical
	// (the differential tests pin this), but the analytic/engine phase
	// counts in the response reflect the path taken.
	Engine bool `json:"engine,omitempty"`

	// M overrides machine resolution (cmd/ctmodel -machine-file).
	// CLI-only plumbing: never serialized and excluded from
	// fingerprints.
	M *machine.Machine `json:"-"`
}

// Canon returns the request with defaults applied and names
// canonicalized (aliases like "a2a" or "hypersystolic" map onto their
// canonical spellings so they share one cache entry).
func (r CollectiveRequest) Canon() CollectiveRequest {
	if r.Machine == "" {
		r.Machine = "t3d"
	}
	if op, err := collective.ParseOp(r.Collective); err == nil {
		r.Collective = string(op)
	} else {
		r.Collective = strings.ToLower(strings.TrimSpace(r.Collective))
	}
	if r.Strategy != "" {
		if st, err := collective.ParseStrategy(r.Strategy); err == nil {
			r.Strategy = string(st)
		} else {
			r.Strategy = strings.ToLower(strings.TrimSpace(r.Strategy))
		}
	}
	if r.Words == 0 {
		r.Words = 256
	}
	if r.Collective == string(collective.Shift) {
		if r.Offset == 0 {
			r.Offset = 1
		}
	} else {
		r.Offset = 0
	}
	return r
}

// Fingerprint canonically keys the request for result caching.
func (r CollectiveRequest) Fingerprint() string {
	c := r.Canon()
	return fmt.Sprintf("collective|%s|%s|%s|%d|%d|%d|%s|%t",
		strings.ToLower(strings.TrimSpace(c.Machine)), c.Collective, c.Strategy,
		c.Nodes, c.Words, c.Offset, strings.ToLower(strings.TrimSpace(c.Level)), c.Engine)
}

// StrategyReport is one strategy's scorecard in a collective
// comparison. A failed strategy (e.g. recursive doubling over a
// non-power-of-two domain in a compare-all request) carries Err and
// zeroes elsewhere.
type StrategyReport struct {
	Strategy       string  `json:"strategy"`
	Phases         int     `json:"phases,omitempty"`
	Messages       int64   `json:"messages,omitempty"`
	VolumeBlocks   int64   `json:"volume_blocks,omitempty"`
	Congestion     float64 `json:"congestion,omitempty"`
	ReplicaBlocks  int64   `json:"replica_blocks,omitempty"`
	ReplicaBytes   int64   `json:"replica_bytes,omitempty"`
	MakespanUs     float64 `json:"makespan_us,omitempty"`
	AnalyticPhases int     `json:"analytic_phases,omitempty"`
	EnginePhases   int     `json:"engine_phases,omitempty"`
	Err            string  `json:"err,omitempty"`
}

// CollectiveResponse reports one planned collective. Text is
// byte-identical to cmd/ctmodel's stdout for the same inputs.
type CollectiveResponse struct {
	Machine    string           `json:"machine"`
	Collective string           `json:"collective"`
	Nodes      int              `json:"nodes"`
	Words      int              `json:"words"`
	Offset     int              `json:"offset,omitempty"`
	Level      string           `json:"level,omitempty"`
	Strategies []StrategyReport `json:"strategies"`
	// Winner is the successful strategy with the smallest makespan
	// (ties break in canonical strategy order).
	Winner string `json:"winner"`
	Text   string `json:"text"`
}

// Collective answers a CollectiveRequest.
func Collective(r CollectiveRequest) (CollectiveResponse, error) {
	resp, _, err := collectiveQ(r, nil)
	return resp, err
}

// levelDomain maps a hierarchy level onto the number of leading
// simulator nodes that tier spans: one socket's cores, one node's
// cores, or the whole machine.
func levelDomain(lvl *netsim.Level, m *machine.Machine) int {
	if lvl == nil || m.Net.Hier == nil {
		return m.Nodes()
	}
	switch *lvl {
	case netsim.IntraSocket:
		return m.Net.Hier.CoresPerSocket
	case netsim.InterSocket:
		return m.Net.Hier.CoresPerSocket * m.Net.Hier.SocketsPerNode
	}
	return m.Nodes()
}

// collectiveQ is the single Collective code path. A non-nil batch
// answers through its collective session: plans and congestion factors
// resolve once per batch, and words axes are answered by fitted affine
// makespan laws. The bool reports whether every evaluated strategy was
// answered from such a law — provenance only: laws are bitwise-verified
// against the evaluator at fit time (collective.Session), so the
// response, rendered Text included, is identical either way.
func collectiveQ(r CollectiveRequest, b *Batch) (CollectiveResponse, bool, error) {
	r = r.Canon()
	op, err := collective.ParseOp(r.Collective)
	if err != nil {
		return CollectiveResponse{}, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	m := r.M
	if m == nil {
		if m, err = b.Machine(r.Machine); err != nil {
			return CollectiveResponse{}, false, err
		}
	}
	level, err := parseLevel(r.Level, m)
	if err != nil {
		return CollectiveResponse{}, false, err
	}
	domain := levelDomain(level, m)
	nodes := r.Nodes
	if nodes == 0 {
		nodes = domain
	}
	if nodes < 2 || nodes > domain {
		return CollectiveResponse{}, false, badf("%s on %s%s spans 2..%d nodes, got %d",
			op, m.Name, levelSuffix(level), domain, nodes)
	}
	if r.Words < 0 {
		return CollectiveResponse{}, false, badf("words must be positive, got %d", r.Words)
	}
	if r.Words > law.MaxWords {
		return CollectiveResponse{}, false, badf("words must be at most %d, got %d", law.MaxWords, r.Words)
	}

	strategies := collective.Strategies()
	comparing := true
	if r.Strategy != "" {
		st, serr := collective.ParseStrategy(r.Strategy)
		if serr != nil {
			return CollectiveResponse{}, false, fmt.Errorf("%w: %v", ErrBadRequest, serr)
		}
		strategies = []collective.Strategy{st}
		comparing = false
	}

	resp := CollectiveResponse{
		Machine:    m.Name,
		Collective: string(op),
		Nodes:      nodes,
		Words:      r.Words,
		Offset:     r.Offset,
		Level:      r.Level,
	}
	analytic := true
	for _, st := range strategies {
		rep := StrategyReport{Strategy: string(st)}
		var (
			ev      collective.Eval
			fromLaw bool
			perr    error
		)
		if b != nil && r.M == nil {
			// Batched: the session memoizes the plan (and its
			// words-invariant congestion factors) and answers
			// law-covered word counts by integer extrapolation.
			// r.M bypasses it — a CLI-loaded machine file has no
			// stable pointer identity to key the session on.
			ev, fromLaw, perr = b.coll.Evaluate(m, op, st, nodes, r.Offset, r.Words, r.Engine)
		} else {
			var plan *collective.Plan
			plan, perr = collective.New(op, st, nodes, r.Offset)
			if perr == nil {
				ev, perr = plan.Evaluate(m, r.Words, r.Engine)
			}
		}
		if perr != nil {
			if !comparing {
				return CollectiveResponse{}, false, fmt.Errorf("%w: %v", ErrBadRequest, perr)
			}
			// In a comparison, an inapplicable strategy is a row, not a
			// failure: the remaining strategies still answer.
			rep.Err = perr.Error()
			resp.Strategies = append(resp.Strategies, rep)
			continue
		}
		rep.Phases = ev.Phases
		rep.Messages = ev.Messages
		rep.VolumeBlocks = ev.VolumeBlocks
		rep.Congestion = ev.MaxCongestion
		rep.ReplicaBlocks = ev.ReplicaBlocks
		rep.ReplicaBytes = ev.ReplicaBytes
		rep.MakespanUs = float64(ev.MakespanNs) / 1e3
		rep.AnalyticPhases = ev.AnalyticPhases
		rep.EnginePhases = ev.EnginePhases
		if !fromLaw {
			// The analytic row flag means "answered from a fitted
			// words law, no per-cell simulation" — the same meaning
			// the price laws give it. A failed strategy in a
			// comparison does not veto it: nothing was evaluated.
			analytic = false
		}
		resp.Strategies = append(resp.Strategies, rep)
	}

	var worst float64
	for _, rep := range resp.Strategies {
		if rep.Err != "" {
			continue
		}
		if resp.Winner == "" || rep.MakespanUs < winnerMakespan(resp) {
			resp.Winner = rep.Strategy
		}
		if rep.MakespanUs > worst {
			worst = rep.MakespanUs
		}
	}
	if resp.Winner == "" {
		// Every strategy failed — only possible when the caller forced a
		// comparison into an impossible spec; surface the first error.
		return CollectiveResponse{}, false, fmt.Errorf("%w: %s", ErrBadRequest, resp.Strategies[0].Err)
	}
	resp.Text = renderCollective(&resp, comparing, worst)
	return resp, analytic, nil
}

// collectiveSize sizes a collective answer for the result cache: its
// rendered Text plus one fixed-size report per strategy.
func collectiveSize(v CollectiveResponse) int64 {
	n := int64(len(v.Text) + len(v.Machine) + len(v.Collective) + len(v.Level) + len(v.Winner))
	for _, rep := range v.Strategies {
		n += int64(96 + len(rep.Strategy) + len(rep.Err))
	}
	return n
}

func winnerMakespan(resp CollectiveResponse) float64 {
	for _, rep := range resp.Strategies {
		if rep.Strategy == resp.Winner && rep.Err == "" {
			return rep.MakespanUs
		}
	}
	return 0
}

func levelSuffix(lvl *netsim.Level) string {
	if lvl == nil {
		return ""
	}
	return " at level " + lvl.String()
}

func renderCollective(resp *CollectiveResponse, comparing bool, worst float64) string {
	var text strings.Builder
	fmt.Fprintf(&text, "collective %s on %s: %d nodes, %d-word blocks", resp.Collective, resp.Machine, resp.Nodes, resp.Words)
	if resp.Collective == string(collective.Shift) {
		fmt.Fprintf(&text, ", offset %d", resp.Offset)
	}
	if resp.Level != "" {
		fmt.Fprintf(&text, ", level %s", resp.Level)
	}
	text.WriteString("\n")
	fmt.Fprintf(&text, "%-15s %7s %9s %9s %6s %9s %14s\n",
		"strategy", "phases", "messages", "blocks", "cong", "replica", "makespan")
	for _, rep := range resp.Strategies {
		if rep.Err != "" {
			fmt.Fprintf(&text, "%-15s failed: %s\n", rep.Strategy, rep.Err)
			continue
		}
		fmt.Fprintf(&text, "%-15s %7d %9d %9d %6g %9d %11.3f us\n",
			rep.Strategy, rep.Phases, rep.Messages, rep.VolumeBlocks,
			rep.Congestion, rep.ReplicaBlocks, rep.MakespanUs)
	}
	if comparing {
		win := winnerMakespan(*resp)
		if win > 0 && worst > win {
			fmt.Fprintf(&text, "winner: %s (%.2fx vs slowest)\n", resp.Winner, worst/win)
		} else {
			fmt.Fprintf(&text, "winner: %s\n", resp.Winner)
		}
	}
	return text.String()
}
