package xfer

import (
	"fmt"

	"ctcomm/internal/law"
	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// Analytic word-count laws.
//
// The memory-system half of an eligible basic transfer settles into an
// exact steady state (memsim ff.go): past warm-up, every whole period
// of P payload words costs a bit-identical integer-femtosecond delta.
// Its cost is therefore EXACTLY affine in the period count — for a
// fixed residue r = words mod P,
//
//	Mem(c·P + r) = A + c·D
//
// with integer-valued A and D. A Law is that affine law fitted and
// verified under internal/law's admission contract; it produces the
// memsim.Result for any covered word count by integer extrapolation
// (memsim.PredictLinear). Replaying that Result through the transfer's
// own post-math (the *On functions) yields an xfer.Result bit-identical
// to running the engine, because the post-math consumes only fields
// derived from the extrapolated integer fs values.
//
// Applicability is decided by the memory system's configuration:
// processor-path kinds use Config.StreamPeriod (the fast-forward shape
// rule), engine-path kinds use Config.EnginePeriod (DRAM page phase
// only).
//
// A processor-path probe that fast-forwards issues memsim's recurrence
// certificate (memsim.Cert): the fast-forward layer proved three
// consecutive recurring period boundaries and knows the exact
// per-period delta of every counter. When the first fit probe carries
// one for the law's period, the second fit point is that probe advanced
// by one delta and no other probe runs. Otherwise the first probe is
// reused and the fit runs its remaining probes: the second fit probe,
// the two near verification probes and the far probe (the engine path
// has no fast-forward, and some configurations never satisfy its strict
// snapshot recurrence even though their per-period cost is constant).
// Anything else — indexed patterns (their permutation depends on the
// word count), overlapping strides, non-steady-state configurations,
// too-long periods — yields no Law and the caller falls back to engine
// evaluation.

// Kind identifies one basic-transfer flavor (the switch between the
// memory-system halves in memPart).
type Kind int

const (
	KindCopy Kind = iota
	KindLoadSend
	KindFetchSend
	KindRecvStore
	KindRecvDeposit
)

// String names the kind with the paper's transfer notation.
func (k Kind) String() string {
	switch k {
	case KindCopy:
		return "xCy"
	case KindLoadSend:
		return "xS0"
	case KindFetchSend:
		return "xF0"
	case KindRecvStore:
		return "0Ry"
	case KindRecvDeposit:
		return "0Dy"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

const (
	// lawC1 is the period count of the first fit probe (the second sits
	// one period later), past the longest warm-up the fast-forward
	// layer itself tolerates (ffMaxProbe = 12 boundaries), so that the
	// first probe has jumped, and can carry a certificate, whenever its
	// shape fast-forwards at all.
	lawC1 = 16
	// lawC3 and lawC4 are the bitwise verification probes. Coprime
	// offsets from the fit points so an accidental two-point fit of a
	// non-affine curve cannot survive both.
	lawC3 = 19
	lawC4 = 23
	// lawC5 is the far verification probe of an uncertified fit: it
	// sits well beyond the fit region, inside the range big sweeps
	// actually ask for.
	lawC5 = 64
	// lawMaxPeriod caps the structural period a law will probe; an
	// uncertified fit costs 139 periods of simulation (a certified one
	// 16), which must stay well under the cost of the big runs the law
	// replaces.
	lawMaxPeriod = 4096
)

// probe is one law probe of a transfer's memory half: the run's result
// and the recurrence certificate the run issued, if any.
type probe struct {
	res  memsim.Result
	cert memsim.Cert
}

// memLaws is the law family of memory-system halves: results are
// memsim.Results, extrapolated in integer femtoseconds and compared
// bitwise; a first probe certified at the law's period admits the law
// alone. Its fits count as family "transfer".
var memLaws = law.Register("transfer", law.Family[probe]{
	C1:     lawC1,
	Verify: []int64{lawC3, lawC4, lawC5},
	Predict: func(r1, r2 probe, n int64) probe {
		return probe{res: memsim.PredictLinear(r1.res, r2.res, n)}
	},
	Equal: func(pred, p probe) bool { return pred.res == p.res },
	Next: func(r1 probe, period int64) (probe, bool) {
		return probe{r1.cert.Next(r1.res), r1.cert}, r1.cert.Period == period
	},
})

// PeriodOf returns the structural steady-state period of the transfer's
// memory half in payload words, or 0 when the shape admits no affine
// law on machine m. Pure address/shape math; nothing is simulated.
func PeriodOf(m *machine.Machine, kind Kind, x, y pattern.Spec) int {
	if x.Kind() == pattern.KindIndexed || y.Kind() == pattern.KindIndexed {
		return 0
	}
	// Mirror the transfer functions' own admission checks: a shape the
	// transfer rejects outright gets no law either.
	switch kind {
	case KindCopy:
		if !x.IsMemory() || !y.IsMemory() {
			return 0
		}
	case KindLoadSend:
		if !x.IsMemory() {
			return 0
		}
	case KindFetchSend:
		if !m.Fetch.Supports(x) {
			return 0
		}
	case KindRecvStore:
		if !y.IsMemory() {
			return 0
		}
	case KindRecvDeposit:
		if !m.Deposit.Supports(y) {
			return 0
		}
	}
	// Representative streams only fix the shape; the period is
	// length-independent. 8 words keeps indexed-permutation and
	// footprint costs nil.
	const w = 8
	var p int
	var rs, ws pattern.Stream
	defer recycle(streams(&rs, &ws, kind, x, y, w))
	switch kind {
	case KindCopy:
		p = m.Mem.StreamPeriod(&rs, ws.ForWrites())
	case KindLoadSend:
		p = m.Mem.StreamPeriod(&rs, nil)
	case KindFetchSend:
		p = m.Mem.EnginePeriod(&rs)
	case KindRecvStore:
		p = m.Mem.StreamPeriod(nil, ws.ForWrites().NoIndexOverhead())
	case KindRecvDeposit:
		p = m.Mem.EnginePeriod(&ws)
	}
	if p > lawMaxPeriod {
		return 0
	}
	return p
}

// Law is a fitted, bitwise-verified affine word-count law for one basic
// transfer shape on one machine, valid for word counts congruent to its
// residue modulo its period.
type Law struct {
	m    *machine.Machine
	kind Kind
	x, y pattern.Spec
	fit  *law.Law[probe]
}

// FitLaw probes, fits and verifies the law for word counts congruent to
// residue mod the shape's period. It returns nil when the shape is not
// law-eligible or when any probe fails to certify steady state — the
// caller must then evaluate with the engine. Probes run on pooled
// memories in the state a fresh one starts in (memsim.Acquire), exactly
// like the engine path, so a fitted law stands in for engine runs bit
// for bit.
func FitLaw(m *machine.Machine, kind Kind, x, y pattern.Spec, residue int) *Law {
	return FitLawPeriod(m, kind, x, y, PeriodOf(m, kind, x, y), residue)
}

// FitLawPeriod is FitLaw for a caller that already holds the shape's
// period, which must be PeriodOf(m, kind, x, y).
func FitLawPeriod(m *machine.Machine, kind Kind, x, y pattern.Spec, period, residue int) *Law {
	if period == 0 {
		return nil
	}
	fit := memLaws.Fit(int64(period), int64(residue), func(words int64) (probe, bool) {
		mem, err := memsim.Acquire(m.Mem)
		if err != nil {
			return probe{}, false
		}
		defer mem.Release()
		res := memPart(mem, kind, x, y, int(words))
		return probe{res, mem.Cert()}, true
	})
	if fit == nil {
		return nil
	}
	return &Law{m: m, kind: kind, x: x, y: y, fit: fit}
}

// Covers reports whether the law may answer for words: same residue
// class, at or past the first fit probe, at most law.MaxWords, and (for
// two-stream copies) a read footprint that still clears the write
// region.
func (l *Law) Covers(words int) bool {
	if !l.fit.Covers(int64(words)) {
		return false
	}
	if l.kind == KindCopy {
		// The probes proved region disjointness at probe length; the
		// target length must not grow the read side into the write base.
		if pattern.NewStream(l.x, srcBase, words).Footprint() > dstBase {
			return false
		}
	}
	return true
}

// Eval produces the transfer result for words by integer extrapolation
// replayed through the transfer's own post-math. The caller must have
// checked Covers.
func (l *Law) Eval(words int) (Result, error) {
	if !l.Covers(words) {
		return Result{}, fmt.Errorf("xfer: law %s %v/%v does not cover %d words", l.kind, l.x, l.y, words)
	}
	return replay(l.m, l.kind, l.x, l.y, l.fit.At(int64(words)).res, words)
}

// replay runs the post-math of a transfer of words payload words over
// mem, the memory half's result for exactly that transfer. It builds no
// stream and allocates nothing.
func replay(m *machine.Machine, kind Kind, x, y pattern.Spec, mem memsim.Result, words int) (Result, error) {
	if err := admit(m, kind, x, y); err != nil {
		return Result{}, err
	}
	return finish(m, kind, x, y, words, mem), nil
}
