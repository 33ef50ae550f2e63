package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"ctcomm/internal/calibrate"
	"ctcomm/internal/machine"
	"ctcomm/internal/query"
	"ctcomm/internal/sweep"
)

// Req is one generated HTTP request. The program under test receives
// only Path and Body; the rest is what the benchmark needs to check
// the answer.
type Req struct {
	Path  string
	Body  []byte
	Kind  string // eval, price, plan, collective, fit or sweep
	Cells int    // rows a sweep must stream; 0 for a point request
	Key   string // cache fingerprint of a point request; "" for a sweep
	Cold  bool   // a point request drawn as a distinct, never-repeated key
}

// Inputs is everything one workload sends, generated from the seed
// before any clock starts.
type Inputs struct {
	Workload string
	Seed     int64
	Conns    int  // closed-loop connections
	Routed   bool // sent through a router in front of two replicas
	Reqs     []Req
	// Warm are the set-up requests: outside the measured key set, they
	// build the process-wide lazy structures (calibrated rate tables)
	// the measured requests use.
	Warm []int
	// Fill primes the result cache with the popular keys before the
	// clock starts, so measured hits are hits.
	Fill []int
	// Rounds are the measured rounds, indices into Reqs. Every round of
	// a workload has the same composition, so round times compare.
	Rounds [][]int32
}

// Answers returns the answers a request yields: one per point, one
// per sweep row.
func (r *Req) Answers() int {
	if r.Cells > 0 {
		return r.Cells
	}
	return 1
}

var workloads = []string{"query-mix", "sweep-law", "sweep-engine", "routed-mix"}

// Workload shapes. A query-mix round is pointsPerRound requests, of
// which len(coldPattern) are distinct keys never sent before; the rest
// are Zipf draws from hotKeys popular keys. Sweep rounds are fixed sets
// of sweeps (lawSlots, engineSlots).
const (
	hotKeys        = 256
	pointsPerRound = 400
	zipfS          = 1.1
	// routedSweepEvery interleaves one short law sweep after every
	// routedSweepEvery points in routed-mix.
	routedSweepEvery = 50
	// wordStep is a multiple of every law period on t3d and paragon
	// (all divide 4096), so every word count of one sweep shares one
	// residue class per shape and one fitted law answers them all.
	// wordBase clears the first fit probe (16 periods) of the longest
	// of those periods, 2048 words.
	wordStep = 4096
	wordBase = 32768
	// Collective laws have periods dividing 512 words on t3d and xe6
	// and fit from the first period on. A step of twice that gives each
	// collective family 1024 residue classes, one per sweep.
	collWordStep = 1024
	collWordBase = 1024
)

// generator accumulates requests and guarantees key distinctness.
type generator struct {
	rng  *rand.Rand
	cat  *rand.Rand
	in   *Inputs
	seen map[string]bool // fingerprints of every point request and sweep cell
	// residues hands each law sweep of a family (kind, machine and
	// shape) its own residue class, so no cell repeats within a run.
	residues map[string][]int
	synth    map[string][]calibrate.MeasuredRow // fit rows per profile
}

// Generate builds the inputs of a workload: rounds measured rounds plus
// one warm-up round (Rounds[0]), all from seed.
func Generate(workload string, seed int64, rounds int) (*Inputs, error) {
	g := &generator{
		rng:      rand.New(rand.NewSource(seed)),
		cat:      rand.New(rand.NewSource(1)),
		in:       &Inputs{Workload: workload, Seed: seed, Conns: 1},
		seen:     map[string]bool{},
		residues: map[string][]int{},
		synth:    map[string][]calibrate.MeasuredRow{},
	}
	var err error
	switch workload {
	case "query-mix":
		g.in.Conns = 2
		err = g.queryMix(rounds+1, false)
	case "routed-mix":
		g.in.Conns, g.in.Routed = 2, true
		err = g.queryMix(rounds+1, true)
	case "sweep-law":
		err = g.sweeps(rounds+1, len(lawSlots), g.lawSweep)
	case "sweep-engine":
		err = g.sweeps(rounds+1, len(engineSlots), g.engineSweep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	if err != nil {
		return nil, err
	}
	return g.in, nil
}

func (g *generator) add(r Req) int32 {
	g.in.Reqs = append(g.in.Reqs, r)
	return int32(len(g.in.Reqs) - 1)
}

// pick draws a categorical parameter (a machine, style, operation)
// from the seed-independent stream cat, so every seed sends the same
// mix of shapes; rng draws the numeric parameters.
func (g *generator) pick(xs []string) string { return xs[g.cat.Intn(len(xs))] }

// point wraps a point request, marking it cold (a distinct,
// never-repeated key) or not. It returns false when the key was
// generated before.
func (g *generator) point(kind string, req interface {
	Fingerprint() string
}, cold bool) (Req, bool) {
	key := req.Fingerprint()
	if g.seen[key] {
		return Req{}, false
	}
	g.seen[key] = true
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return Req{Path: "/v1/" + kind, Body: body, Kind: kind, Key: key, Cold: cold}, true
}

var (
	allMachines = []string{"t3d", "paragon", "cluster", "xe6"}
	levels      = []string{"intra-socket", "inter-socket", "inter-node"}
	styles      = []string{"buffer-packing", "chained", "direct", "pvm"}
	priceOps    = []string{"1Q1", "1Q16", "1Q64", "64Q1", "16Q1", "8Q8", "wQ1", "1Qw"}
	evalOps     = []string{"1Q1", "1Q64", "64Q1", "wQ1", "1Qw", "8Q8"}
	dists       = []string{"BLOCK", "CYCLIC", "CYCLIC(4)", "CYCLIC(16)"}
	collectives = []string{"all-to-all", "broadcast", "shift", "reduce"}
)

// style draws a style the machine implements (the multicore cluster
// has no deposit engine, so it cannot chain).
func (g *generator) style(m string) string {
	for {
		if s := g.pick(styles); s != "chained" || m != "cluster" {
			return s
		}
	}
}

func (g *generator) evalReq() query.EvalRequest {
	m := g.pick(allMachines)
	r := query.EvalRequest{Machine: m, Op: g.pick(evalOps), Rates: "calibrated",
		Congestion: []float64{0, 1, 2, 4}[g.cat.Intn(4)]}
	switch {
	case m == "cluster" || m == "xe6":
		if g.cat.Intn(3) > 0 {
			r.Level = g.pick(levels)
		}
	case g.cat.Intn(2) == 0:
		r.Rates = "paper"
	}
	return r
}

func (g *generator) priceReq(cold bool) query.PriceRequest {
	m := g.pick(allMachines)
	r := query.PriceRequest{Machine: m, Style: g.style(m)}
	r.X, r.Y = splitOp(g.pick(priceOps))
	if cold {
		r.Words = 1024 + g.rng.Intn(16384)
	} else {
		r.Words = []int{1024, 4096, 16384}[g.cat.Intn(3)]
	}
	return r
}

func (g *generator) planReq(cold bool) query.PlanRequest {
	r := query.PlanRequest{Machine: g.pick([]string{"t3d", "paragon"}), P: []int{4, 8, 16}[g.cat.Intn(3)]}
	if g.cat.Intn(4) == 0 {
		r.Transpose = r.P * (2 + g.rng.Intn(7)) // the processors must divide n
		return r
	}
	r.Src = g.pick(dists)
	for r.Dst = g.pick(dists); r.Dst == r.Src; r.Dst = g.pick(dists) {
	}
	if cold {
		r.N = 1024 + g.rng.Intn(8192)
	} else {
		r.N = []int{4096, 8192}[g.cat.Intn(2)]
	}
	return r
}

func (g *generator) collectiveReq(cold bool) query.CollectiveRequest {
	r := query.CollectiveRequest{Machine: g.pick([]string{"t3d", "xe6"}), Collective: g.pick(collectives)}
	r.Nodes = []int{4, 8, 16}[g.cat.Intn(3)]
	if r.Collective == "all-to-all" {
		r.Nodes = 4 // an all-to-all costs ten times the rest per node
	}
	if cold {
		r.Words = 64 + g.rng.Intn(4096)
	} else {
		r.Words = []int{256, 512, 1024, 2048}[g.cat.Intn(4)]
	}
	return r
}

// fitReq fits seeded measurements: the base profile's own synthesized
// rows with every rate perturbed by up to ±5%, so each request has
// distinct rows.
func (g *generator) fitReq() query.FitRequest {
	base := g.pick([]string{"t3d", "paragon", "xe6"})
	m, err := query.ResolveMachine(base)
	if err != nil {
		panic(err) // built-in profile names always resolve
	}
	rows := g.fitRows(m)
	for i := range rows {
		rows[i].RateMBps *= 0.95 + 0.1*g.rng.Float64()
	}
	return query.FitRequest{Base: base, Rows: rows}
}

// fitRows returns a copy of the rows synthesized from m's profile,
// synthesizing them once per profile.
func (g *generator) fitRows(m *machine.Machine) []calibrate.MeasuredRow {
	rows, ok := g.synth[m.Name]
	if !ok {
		rows = calibrate.Synthesize(m, calibrate.DefaultFitSizes)
		g.synth[m.Name] = rows
	}
	return append([]calibrate.MeasuredRow(nil), rows...)
}

func splitOp(op string) (x, y string) {
	x, y, _ = strings.Cut(op, "Q")
	return x, y
}

// pointOf draws one point request of the given kind; cold requests are
// retried until their key is new.
func (g *generator) pointOf(kind string, cold bool) Req {
	for try := 0; ; try++ {
		if try == 10000 {
			panic("perfbench: no new " + kind + " key left to draw")
		}
		var r Req
		var ok bool
		switch kind {
		case "eval":
			r, ok = g.point(kind, g.evalReq(), cold)
		case "price":
			r, ok = g.point(kind, g.priceReq(cold), cold)
		case "plan":
			r, ok = g.point(kind, g.planReq(cold), cold)
		case "collective":
			r, ok = g.point(kind, g.collectiveReq(cold), cold)
		case "fit":
			r, ok = g.point(kind, g.fitReq(), cold)
		}
		if ok {
			return r
		}
	}
}

// hotPattern fixes the kind of each popularity rank (cycled) and
// coldPattern the kinds of one round's cold keys, so the mix of kinds
// among hits and misses is the same for every seed; the seed draws
// each request's parameters.
var (
	hotPattern  = []string{"eval", "price", "eval", "collective", "price", "eval", "plan", "fit", "eval", "collective"}
	coldPattern = []string{"price", "plan", "collective", "price", "fit", "price", "plan", "collective",
		"price", "fit", "price", "plan", "collective", "price", "fit", "price"}
)

// warmPoints adds the set-up requests of a point workload: a rate-table
// listing (a key no measured request uses) for every machine and tier
// whose calibrated table the measured requests read.
func (g *generator) warmPoints() {
	type mt struct{ m, level string }
	need := map[mt]bool{}
	for _, r := range g.in.Reqs {
		if r.Kind != "eval" {
			continue
		}
		var e query.EvalRequest
		if err := json.Unmarshal(r.Body, &e); err != nil {
			panic(err)
		}
		if e.Rates == "calibrated" {
			need[mt{e.Machine, e.Level}] = true
		}
	}
	for _, m := range allMachines {
		for _, l := range append([]string{""}, levels...) {
			if !need[mt{m, l}] {
				continue
			}
			r, _ := g.point("eval", query.EvalRequest{Machine: m, Rates: "calibrated", List: true, Level: l}, false)
			g.in.Warm = append(g.in.Warm, int(g.add(r)))
		}
	}
}

// queryMix generates the point workload: a Zipf-popular hot set that
// fills the cache before the clock, and rounds of Zipf hot draws mixed
// with distinct cold keys. Routed rounds also interleave short law
// sweeps.
func (g *generator) queryMix(rounds int, routed bool) error {
	hot := make([]int32, hotKeys)
	for i := range hot {
		hot[i] = g.add(g.pointOf(hotPattern[i%len(hotPattern)], false))
		g.in.Fill = append(g.in.Fill, int(hot[i]))
	}
	g.warmPoints()
	if routed {
		if err := g.warmSweep(g.lawSweep); err != nil {
			return err
		}
	}
	zipf := rand.NewZipf(g.rng, zipfS, 1, hotKeys-1)
	sweeps := 0
	for range rounds {
		round := make([]int32, 0, pointsPerRound+pointsPerRound/routedSweepEvery)
		// Cold keys sit at seeded positions among the hot draws.
		coldAt := map[int]bool{}
		for len(coldAt) < len(coldPattern) {
			coldAt[g.rng.Intn(pointsPerRound)] = true
		}
		cold := 0
		for i := 0; i < pointsPerRound; i++ {
			if coldAt[i] {
				round = append(round, g.add(g.pointOf(coldPattern[cold], true)))
				cold++
			} else {
				round = append(round, hot[zipf.Uint64()])
			}
			if routed && (i+1)%routedSweepEvery == 0 {
				// The short law sweeps of sweep-law's slots, in turn.
				r, err := g.lawSweep(sweeps % (len(lawSlots) - 2))
				if err != nil {
					return err
				}
				round = append(round, g.add(r))
				sweeps++
			}
		}
		g.in.Rounds = append(g.in.Rounds, round)
	}
	return nil
}

// sweeps generates a sweep workload: one set-up sweep, then rounds of
// one sweep per slot.
func (g *generator) sweeps(rounds, slots int, mk func(slot int) (Req, error)) error {
	if err := g.warmSweep(mk); err != nil {
		return err
	}
	for range rounds {
		round := make([]int32, 0, slots)
		for slot := 0; slot < slots; slot++ {
			r, err := mk(slot)
			if err != nil {
				return err
			}
			round = append(round, g.add(r))
		}
		g.in.Rounds = append(g.in.Rounds, round)
	}
	return nil
}

// warmSweep adds one short sweep to the set-up requests; its cells are
// outside the measured key set, since no cell is generated twice.
func (g *generator) warmSweep(mk func(slot int) (Req, error)) error {
	r, err := mk(0)
	if err != nil {
		return err
	}
	g.in.Warm = append(g.in.Warm, int(g.add(r)))
	return nil
}

// sweepReq expands spec, rejects it if any cell was generated before,
// and wraps it.
func (g *generator) sweepReq(spec sweep.Spec) (Req, bool, error) {
	cells, err := sweep.Expand(spec)
	if err != nil {
		return Req{}, false, fmt.Errorf("generated sweep: %w", err)
	}
	keys := map[string]bool{}
	for _, c := range cells {
		k := c.Fingerprint()
		if g.seen[k] || keys[k] {
			return Req{}, false, nil
		}
		keys[k] = true
	}
	for k := range keys {
		g.seen[k] = true
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return Req{}, false, err
	}
	return Req{Path: "/v1/sweep", Body: body, Kind: "sweep", Cells: len(cells)}, true, nil
}

// residue hands out the next unused residue class mod step for a
// sweep family, in a seeded order.
func (g *generator) residue(family string, step int) int {
	rs, ok := g.residues[family]
	if !ok {
		rs = g.rng.Perm(step)
	}
	if len(rs) == 0 {
		panic("perfbench: residue classes exhausted for " + family)
	}
	g.residues[family] = rs[1:]
	return rs[0]
}

// lawWords is the words axis of a law sweep: n counts from first in
// steps of step, so all share one residue class.
func lawWords(first, step, n int) []int {
	ws := make([]int, n)
	for i := range ws {
		ws[i] = first + i*step
	}
	return ws
}

// A law round is the same sixteen sweeps every round, and for every
// seed: the slot fixes the sweep's shape and size and the seed draws
// only its word counts, so rounds carry equal work and their times
// compare. Ten short price sweeps and four short collective sweeps, of
// one shape and eight word counts each, cover both machines of each
// kind, contiguous and strided operations, all four styles and all
// four collectives; they are bound by fitting the laws. The two long
// sweeps, 64 word counts of one shape, are bound by answering from
// them.
var lawSlots = []struct {
	kind    string
	machine string
	shape   string // operation or collective
	style   string // price style
	nodes   int    // collective node count
	words   int    // word counts
}{
	{"price", "t3d", "1Q1", "buffer-packing", 0, 8},
	{"price", "t3d", "1Q64", "chained", 0, 8},
	{"price", "t3d", "64Q1", "pvm", 0, 8},
	{"price", "t3d", "16Q1", "direct", 0, 8},
	{"price", "t3d", "1Q1", "direct", 0, 8},
	{"price", "paragon", "1Q1", "direct", 0, 8},
	{"price", "paragon", "1Q64", "chained", 0, 8},
	{"price", "paragon", "64Q1", "buffer-packing", 0, 8},
	{"price", "paragon", "16Q1", "chained", 0, 8},
	{"price", "paragon", "64Q1", "chained", 0, 8},
	{"collective", "t3d", "all-to-all", "", 4, 8},
	{"collective", "t3d", "broadcast", "", 16, 8},
	{"collective", "xe6", "shift", "", 8, 8},
	{"collective", "xe6", "reduce", "", 16, 8},
	{"price", "t3d", "1Q64", "buffer-packing", 0, 64},
	{"collective", "xe6", "broadcast", "", 16, 64},
}

// lawSweep draws the sweep of law slot slot; no cell repeats a cell
// drawn before, since each sweep of a family takes its own residue
// class. Running out of classes panics: roundsFor bounds the rounds.
func (g *generator) lawSweep(slot int) (Req, error) {
	s := lawSlots[slot]
	for {
		spec := sweep.Spec{Kind: s.kind, Machines: []string{s.machine}}
		if s.kind == "price" {
			spec.Ops, spec.Styles = []string{s.shape}, []string{s.style}
			r := g.residue("price/"+s.machine+"/"+s.shape, wordStep)
			spec.Words = lawWords(wordBase+r, wordStep, s.words)
		} else {
			spec.Collectives, spec.NodeCounts = []string{s.shape}, []int{s.nodes}
			r := g.residue("collective/"+s.machine+"/"+s.shape, collWordStep)
			spec.Words = lawWords(collWordBase+r, collWordStep, s.words)
		}
		// In routed-mix a cold point request may already hold one of
		// the cells; the next residue class is then used.
		r, ok, err := g.sweepReq(spec)
		if err != nil || ok {
			return r, err
		}
	}
}

// An engine round is the same twelve sweeps every round, and for every
// seed, over grids no law covers: indexed (ω) price grids, whose
// shapes have no structural period, and redistribution plan grids,
// which always run the engine. The seed draws word counts and array
// sizes.
var engineSlots = []struct {
	kind    string
	machine string
	ops     []string // ω operations, or the redistribution targets
	style   string
	p       int // processors of a redistribution
	words   int // word counts per operation
}{
	{"price", "t3d", []string{"wQ1"}, "buffer-packing", 0, 2},
	{"price", "t3d", []string{"1Qw"}, "chained", 0, 2},
	{"price", "t3d", []string{"wQw"}, "direct", 0, 2},
	{"price", "paragon", []string{"wQ64"}, "pvm", 0, 2},
	{"price", "paragon", []string{"64Qw"}, "buffer-packing", 0, 2},
	{"price", "paragon", []string{"wQ1"}, "chained", 0, 2},
	{"plan", "t3d", []string{"CYCLIC", "CYCLIC(4)"}, "", 8, 0},
	{"plan", "paragon", []string{"CYCLIC(16)", "CYCLIC"}, "", 8, 0},
	{"plan", "t3d", []string{"CYCLIC(8)", "CYCLIC(2)"}, "", 4, 0},
	{"plan", "paragon", []string{"CYCLIC(4)", "CYCLIC(2)"}, "", 8, 0},
	{"plan", "t3d", []string{"CYCLIC(16)", "CYCLIC(32)"}, "", 4, 0},
	{"price", "t3d", []string{"wQ1"}, "pvm", 0, 6},
}

// engineSweep draws the sweep of engine slot slot. Word counts and
// array sizes are drawn without replacement per slot, so no cell
// repeats.
func (g *generator) engineSweep(slot int) (Req, error) {
	s := engineSlots[slot]
	family := fmt.Sprint("engine/", slot)
	spec := sweep.Spec{Kind: s.kind, Machines: []string{s.machine}}
	if s.kind == "price" {
		// Word counts are drawn around 2560 from a range of at least
		// 512 per word count a sweep takes, so every slot lasts 512
		// rounds; the mean, and so the work, is the same in every slot.
		span := max(2048, 512*s.words)
		spec.Ops, spec.Styles = s.ops, []string{s.style}
		for range s.words {
			spec.Words = append(spec.Words, 2560-span/2+g.residue(family, span))
		}
	} else {
		spec.Ns = []int{s.p * (256 + g.residue(family, 512))}
		spec.Ps, spec.Srcs, spec.Dsts = []int{s.p}, []string{"BLOCK"}, s.ops
	}
	r, ok, err := g.sweepReq(spec)
	if err == nil && !ok {
		err = fmt.Errorf("generated sweep repeats a cell: %+v", spec)
	}
	return r, err
}
