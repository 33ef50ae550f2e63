package comm

import (
	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/once"
	"ctcomm/internal/pattern"
	"ctcomm/internal/xfer"
)

// Session is the batch-evaluation context for sweeps: per machine it
// memoizes basic-transfer results and fits analytic word-count laws
// (xfer.FitLaw), so a grid of cells shares stage simulations across
// styles, congestion levels and duplex settings, and the element-count
// axis is answered by integer extrapolation instead of re-running the
// engine. Every result is bit-identical to the engine path — laws are
// bitwise-verified at fit time and replay through the same post-math,
// and memoized engine runs are deterministic — so a Session changes
// cost, never answers.
//
// A Session is safe for concurrent use; cells of one sweep evaluate on
// many workers at once. Machines are keyed by pointer: resolve each
// machine once per batch (query.Batch does) and pass the same pointer
// for every cell.
type Session struct {
	machs once.Map[*machine.Machine, *machSession]
}

// NewSession returns an empty batch context.
func NewSession() *Session { return &Session{} }

// Run is RunWith over the session's memoizing, law-fitting source for m.
func (s *Session) Run(m *machine.Machine, style Style, x, y pattern.Spec, opt Options) (Result, error) {
	return RunWith(m, style, x, y, opt, s.SourceFor(m))
}

// SourceFor returns the session's Source bound to machine m.
func (s *Session) SourceFor(m *machine.Machine) Source {
	return s.machs.Get(m, func() *machSession { return &machSession{m: m} })
}

type shapeKey struct {
	kind xfer.Kind
	x, y pattern.Spec
}

type lawKey struct {
	shapeKey
	residue int
}

type memoKey struct {
	shapeKey
	words int
}

type transferred struct {
	res      xfer.Result
	analytic bool
	err      error
}

// machSession implements Source for one machine.
type machSession struct {
	m       *machine.Machine
	periods once.Map[shapeKey, int]     // xfer.PeriodOf; 0: no law
	laws    once.Map[lawKey, *xfer.Law] // nil: shape not law-eligible, use the engine
	memo    once.Map[memoKey, transferred]
}

func (ms *machSession) Transfer(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error) {
	t := ms.memo.Get(memoKey{shapeKey{kind, x, y}, words}, func() transferred {
		res, analytic, err := ms.compute(kind, x, y, words)
		return transferred{res, analytic, err}
	})
	return t.res, t.analytic, t.err
}

// compute answers one transfer: by law when the shape admits one that
// covers this word count, by the engine otherwise.
func (ms *machSession) compute(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error) {
	shape := shapeKey{kind, x, y}
	p := ms.periods.Get(shape, func() int { return xfer.PeriodOf(ms.m, kind, x, y) })
	if p > 0 {
		k := lawKey{shape, words % p}
		law := ms.laws.Get(k, func() *xfer.Law { return xfer.FitLawPeriod(ms.m, kind, x, y, p, k.residue) })
		if law != nil && law.Covers(words) {
			res, err := law.Eval(words)
			if err == nil {
				return res, true, nil
			}
			// A law that cannot evaluate falls through to the engine;
			// the engine remains the authority on every input.
		}
	}
	res, err := runEngine(ms.m, kind, x, y, words)
	return res, false, err
}

// WordsPeriod returns the least common multiple of the law periods
// (xfer.PeriodOf) of every basic transfer the style assembles for xQy
// on m, or 0 when none of them is periodic. Two word counts equal
// modulo it select the same residue class of every law a Session fits
// for such a cell, whatever its congestion or duplex setting — the
// invariant a router needs to send such cells to one replica. A period
// past law.MaxWords, which no word count spans, also reads 0. The
// transfers are enumerated by the assembler itself, so the period
// cannot drift from what the sessions fit. Pure shape math; nothing is
// simulated.
func WordsPeriod(m *machine.Machine, style Style, x, y pattern.Spec) int64 {
	ps := &periodSource{m: m}
	// An error (a shape the style rejects) leaves folded in the
	// transfers requested before it, exactly those a Session fits.
	_, _ = RunWith(m, style, x, y, Options{Words: 1}, ps)
	if ps.period > law.MaxWords {
		return 0
	}
	return ps.period
}

// periodSource is the Source behind WordsPeriod: it answers every
// transfer with a zero result and folds the transfer's law period into
// the running lcm. Assembly never branches on result values, so the
// zero results only make the assembled rates meaningless.
type periodSource struct {
	m      *machine.Machine
	period int64
}

func (ps *periodSource) Transfer(kind xfer.Kind, x, y pattern.Spec, words int) (xfer.Result, bool, error) {
	// Periods are at most 4096, so clamping keeps the lcm from overflowing.
	ps.period = min(law.LCM(ps.period, int64(xfer.PeriodOf(ps.m, kind, x, y))), law.MaxWords+1)
	return xfer.Result{}, false, nil
}
