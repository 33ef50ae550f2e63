package collective

import (
	"ctcomm/internal/aapc"
	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/once"
	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
)

// Affine words laws.
//
// A plan's phase structure, congestion factors and barrier count are
// all words-invariant: changing the block size only scales the bytes
// of every flow, by exactly 8*Blocks bytes per word. Whenever every
// phase's stream/engine time is affine in those bytes, the whole
// makespan is affine in the word count — and along a residue class of
// the plan's structural period it provably is for the congestion-free
// closed form: a period P is chosen so that P words advance every
// phase's payload by a whole number of packets AND its wire bytes by a
// whole number of chunks, so the chunk count steps uniformly and the
// last-chunk size stays constant, shifting SendStream's flow-shop end
// time by an exact integer delta per period. Congested phases run the
// event engine, whose per-period delta is not proven constant — so,
// exactly like the price laws, a law is only admitted under
// internal/law's bitwise-verified admission contract, here with the far
// probe always required, and the engine answers for any family that
// fails it. The engine remains the authority on every input; a law
// changes cost, never answers.
//
// Makespans are integer sim.Time nanoseconds, so the fit is integer
// arithmetic end to end: Makespan(c*P + r) = t1 + (c-lawWordsC1)*(t2-t1),
// reproduced bit for bit (MakespanNs is float64(t) on both paths).

const (
	// lawWordsC1 is the period count of the first fit probe; the second
	// sits one period later. The network simulator has no warm-up (each
	// phase starts with every resource idle), so the fit can start at
	// one period.
	lawWordsC1 = 1
	// lawWordsC3 and lawWordsC4 are bitwise verification probes just
	// past the fit region; lawWordsC5 is the far probe — four fit
	// spans out, where an accidental two-point fit of a non-affine
	// curve (e.g. mesh-contended engine phases) drifts and is
	// rejected.
	lawWordsC3 = 3
	lawWordsC4 = 4
	lawWordsC5 = 8
	// lawWordsMaxPeriod caps the structural period a law will probe:
	// the five probes cost 18 periods of evaluation, which must stay
	// comparable to the big cells the law replaces.
	lawWordsMaxPeriod = 4096
)

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// WordsPeriod returns the plan's structural words period on machine m
// (wordsPeriod of its schedule): every words law a Session fits for
// the plan on m is keyed by the word count's residue modulo it. Zero
// means the plan gets no law on m.
func (p *Plan) WordsPeriod(m *machine.Machine) int64 { return wordsPeriod(m, p.Schedule) }

// wordsPeriod returns the structural words period of the schedule on
// machine m: the smallest P such that for every phase, P words grow
// the per-flow payload by a whole number of packets and the per-flow
// wire bytes by a whole number of chunks. Along a residue class mod P
// the chunk count of every flow steps uniformly and its last-chunk
// size is constant — the precondition for an affine makespan. Returns
// 0 when the period exceeds lawWordsMaxPeriod (no law; probing would
// cost more than it saves). Pure arithmetic; nothing is simulated.
func wordsPeriod(m *machine.Machine, s *aapc.Schedule) int64 {
	pp := int64(m.Net.PacketPayloadBytes)
	chunk := int64(m.Net.ChunkBytes)
	if pp <= 0 || chunk <= 0 {
		return 0
	}
	period := int64(1)
	seen := map[int64]bool{}
	for pi := range s.Phases {
		b := s.BlocksAt(pi)
		if b <= 0 || seen[b] {
			continue
		}
		seen[b] = true
		// One word grows each flow of this phase by 8*b payload bytes;
		// p1 words align that growth to whole packets, making the wire
		// growth w1 exact (WireBytes is affine between packet
		// boundaries), and the chunk multiplier aligns w1 to whole
		// chunks.
		step := b * pattern.WordBytes
		p1 := pp / gcd64(step, pp)
		w1 := m.Net.WireBytes(netsim.DataOnly, step*p1)
		pb := p1 * (chunk / gcd64(w1, chunk))
		period = period / gcd64(period, pb) * pb
		if period > lawWordsMaxPeriod {
			return 0
		}
	}
	return period
}

// probe is one evaluation of a family at a probe word count, with its
// makespan as the integer the law extrapolates.
type probe struct {
	ev Eval
	t  sim.Time
}

// wordsLaws is the law family of collective makespans: every
// words-invariant Eval field must agree across the probes (sameShape),
// and the integer makespan extrapolates exactly. Its fits count as
// family "collective".
var wordsLaws = law.Register("collective", law.Family[probe]{
	C1:     lawWordsC1,
	Verify: []int64{lawWordsC3, lawWordsC4},
	Far:    lawWordsC5,
	Pair:   func(p1, p2 probe) (ok, far bool) { return sameShape(p1.ev, p2.ev), true },
	Predict: func(p1, p2 probe, n int64) probe {
		return probe{ev: p1.ev, t: p1.t + sim.Time(n)*(p2.t-p1.t)}
	},
	Equal: func(pred, p probe) bool { return sameShape(pred.ev, p.ev) && pred.t == p.t },
})

// sameShape reports whether two evals agree on every words-invariant
// field. A mismatch across probes means the family is not the fixed
// phase-class the law assumes, and no law is admitted.
func sameShape(a, b Eval) bool {
	return a.Phases == b.Phases &&
		a.Messages == b.Messages &&
		a.VolumeBlocks == b.VolumeBlocks &&
		a.MaxCongestion == b.MaxCongestion &&
		a.ReplicaBlocks == b.ReplicaBlocks &&
		a.AnalyticPhases == b.AnalyticPhases &&
		a.EnginePhases == b.EnginePhases
}

// fitWordsLaw fits the plan's words law for one (machine, engine-flag)
// family and one residue class. Any probe error, float makespan, shape
// drift, or makespan mismatch yields nil and the caller falls back to
// Plan.Evaluate.
func fitWordsLaw(p *Plan, m *machine.Machine, engine bool, period, residue int64) *law.Law[probe] {
	return wordsLaws.Fit(period, residue, func(words int64) (probe, bool) {
		ev, err := p.Evaluate(m, int(words), engine)
		if err != nil {
			return probe{}, false
		}
		// Makespans are integer nanoseconds reported as float64; the
		// law extrapolates the integers, so they must round-trip.
		t := sim.Time(ev.MakespanNs)
		return probe{ev: ev, t: t}, float64(t) == ev.MakespanNs
	})
}

// evalAt reconstructs the full Eval for words from a law covering it:
// invariant fields from the verified probes, ReplicaBytes by its exact
// affine definition, and the makespan by integer extrapolation.
func evalAt(l *law.Law[probe], words int64) Eval {
	p := l.At(words)
	ev := p.ev
	ev.ReplicaBytes = ev.ReplicaBlocks * words * pattern.WordBytes
	ev.MakespanNs = float64(p.t)
	return ev
}

// Session is the batch-evaluation context for collective sweeps: it
// memoizes plans (so the per-machine congestion cache on each plan is
// shared across cells and workers), memoizes evaluations, and fits
// affine words laws per (plan, machine, engine-flag, residue) family
// so a words axis is answered by O(1) integer extrapolation instead
// of per-cell simulation. Every law is bitwise-verified against the
// evaluator at fit time (fitWordsLaw), so a Session changes cost,
// never answers — the differential sweep tests pin this byte for
// byte, rendered text included.
//
// A Session is safe for concurrent use; cells of one sweep evaluate
// on many workers at once. Machines are keyed by pointer: resolve
// each machine once per batch (query.Batch does) and pass the same
// pointer for every cell.
type Session struct {
	plans once.Map[planKey, planned]
	laws  once.Map[sessLawKey, *law.Law[probe]] // nil: family not law-eligible
	memo  once.Map[sessMemoKey, evaluated]
}

// NewSession returns an empty batch context.
func NewSession() *Session { return &Session{} }

type planKey struct {
	op     Op
	st     Strategy
	nodes  int
	offset int
}

type sessLawKey struct {
	pk      planKey
	m       *machine.Machine
	engine  bool
	residue int64
}

type sessMemoKey struct {
	pk     planKey
	m      *machine.Machine
	engine bool
	words  int
}

type planned struct {
	plan *Plan
	err  error
}

type evaluated struct {
	ev       Eval
	analytic bool
	err      error
}

// Evaluate plans op/st over nodes participants (planning once per
// session) and times it on m with blocks of words 64-bit words — by a
// fitted words law when one covers words, by Plan.Evaluate otherwise.
// The bool reports the law path; provenance only: by the admission
// contract the Eval is bit-identical either way.
func (s *Session) Evaluate(m *machine.Machine, op Op, st Strategy, nodes, offset, words int, engine bool) (Eval, bool, error) {
	pk := planKey{op: op, st: st, nodes: nodes, offset: offset}
	e := s.memo.Get(sessMemoKey{pk: pk, m: m, engine: engine, words: words}, func() evaluated {
		ev, analytic, err := s.compute(pk, m, engine, words)
		return evaluated{ev, analytic, err}
	})
	return e.ev, e.analytic, e.err
}

// compute answers one evaluation: by law when the family admits one
// that covers this word count, by the evaluator otherwise.
func (s *Session) compute(pk planKey, m *machine.Machine, engine bool, words int) (Eval, bool, error) {
	// Plans are memoized with their errors, which keep the exact
	// collective.New text every frontend reports.
	pl := s.plans.Get(pk, func() planned {
		plan, err := New(pk.op, pk.st, pk.nodes, pk.offset)
		return planned{plan, err}
	})
	if pl.err != nil {
		return Eval{}, false, pl.err
	}
	// Only coverable word counts trigger a fit: small blocks below the
	// first probe are cheaper to just evaluate. Coverage is a pure
	// function of the cell, so the analytic provenance flag is
	// deterministic.
	if period := pl.plan.WordsPeriod(m); period > 0 && wordsLaws.Reaches(period, int64(words)) {
		residue := int64(words) % period
		l := s.laws.Get(sessLawKey{pk: pk, m: m, engine: engine, residue: residue}, func() *law.Law[probe] {
			return fitWordsLaw(pl.plan, m, engine, period, residue)
		})
		if l != nil && l.Covers(int64(words)) {
			return evalAt(l, int64(words)), true, nil
		}
	}
	ev, err := pl.plan.Evaluate(m, words, engine)
	return ev, false, err
}
