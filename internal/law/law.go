// Package law fits exact affine word-count laws and admits them only
// after bitwise verification.
//
// A law family stands in for an authority — a simulator whose cost, for
// a fixed residue r of the word count modulo a structural period P, is
// exactly affine in the period count: f(c·P + r) = A + c·D with
// integer-valued A and D. The family supplies the period (a pure
// function of its inputs, computed by the caller), the probe that runs
// the authority, and the integer arithmetic of its results; this
// package owns the admission contract every family shares:
//
//   - fit: probe at C1 and C1+1 periods past the residue;
//   - verify: the extrapolation of those two probes must reproduce the
//     authority bit for bit at every verification probe, and at the far
//     probe unless the family waives it for this pair;
//   - cover: a fitted law answers only word counts in its residue class,
//     at or past the first fit probe, and at most MaxWords.
//
// A family that fails any step gets no law and its caller evaluates
// with the authority, so a law changes cost, never answers.
package law

// MaxWords bounds the word counts any law answers and that price and
// collective queries accept. It keeps integer extrapolation, payload byte counts and
// float64 renderings far from their int64 and exactness limits; sweeps
// ask for orders of magnitude less.
const MaxWords = 1 << 31

// Family is one law family's probe placement and result arithmetic.
// Probe positions count whole periods past the residue.
type Family[R any] struct {
	// C1 is the first fit probe; the second sits one period later.
	C1 int64
	// Verify lists the verification probes every fit must reproduce.
	Verify []int64
	// Far is the far verification probe, beyond the fit region.
	Far int64
	// Pair judges the two fit probes: ok=false rejects the fit, and
	// far=false waives the far probe.
	Pair func(r1, r2 R) (ok, far bool)
	// Predict extrapolates the fit probes r1 and r2 to n periods past
	// C1, in exact integer arithmetic.
	Predict func(r1, r2 R, n int64) R
	// Equal reports whether a prediction matches a probe bit for bit.
	Equal func(pred, probe R) bool
}

// Law is a fitted, verified law for one residue class of one family.
type Law[R any] struct {
	f               *Family[R]
	period, residue int64
	r1, r2          R // the fit probes, at C1 and C1+1 periods
}

// Fit runs probe, which evaluates the authority at a word count and
// reports false when it cannot, at the fit and verification probes of
// the residue class mod period, and returns the verified law — or nil
// when the residue is out of range, a probe fails, Pair rejects the fit
// probes, or any verification probe differs from the extrapolation.
func (f *Family[R]) Fit(period, residue int64, probe func(words int64) (R, bool)) *Law[R] {
	if period <= 0 || residue < 0 || residue >= period {
		return nil
	}
	run := func(c int64) (R, bool) { return probe(c*period + residue) }
	r1, ok1 := run(f.C1)
	r2, ok2 := run(f.C1 + 1)
	if !ok1 || !ok2 {
		return nil
	}
	ok, far := f.Pair(r1, r2)
	if !ok {
		return nil
	}
	check := func(c int64) bool {
		r, ok := run(c)
		return ok && f.Equal(f.Predict(r1, r2, c-f.C1), r)
	}
	for _, c := range f.Verify {
		if !check(c) {
			return nil
		}
	}
	if far && !check(f.Far) {
		return nil
	}
	return &Law[R]{f: f, period: period, residue: residue, r1: r1, r2: r2}
}

// Reaches reports whether a law of the family with this period would
// cover words, in words' own residue class: at or past the first fit
// probe and at most MaxWords.
func (f *Family[R]) Reaches(period, words int64) bool {
	return words >= f.C1*period+words%period && words <= MaxWords
}

// Covers reports whether the law may answer for words.
func (l *Law[R]) Covers(words int64) bool {
	return words%l.period == l.residue && l.f.Reaches(l.period, words)
}

// At extrapolates the law to words, which it must cover.
func (l *Law[R]) At(words int64) R {
	return l.f.Predict(l.r1, l.r2, words/l.period-l.f.C1)
}
