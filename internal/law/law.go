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
//     authority bit for bit at every verification probe, the last of
//     them far beyond the fit region;
//   - cover: a fitted law answers only word counts in its residue class,
//     at or past the first fit probe, and at most MaxWords.
//
// An authority that proves its own recurrence shortens the fit: when
// the family's Next finds a certificate on the first probe, the second
// fit probe is that probe advanced by one certified period, and no
// further probe runs. Without one the first probe is reused and the
// rest of the contract runs as above. Coverage starts at C1 periods
// either way.
//
// A family that fails any step gets no law and its caller evaluates
// with the authority, so a law changes cost, never answers.
//
// Every Fit of a registered family is counted process-wide by family
// and outcome (FitCounts), so a server can show how many fits its
// traffic cost and how many of them a certificate admitted.
package law

import (
	"sort"
	"sync"
	"sync/atomic"
)

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
	// Verify lists the verification probes every uncertified fit must
	// reproduce, in the order they run.
	Verify []int64
	// Pair, when set, judges the two fit probes: false rejects the fit.
	Pair func(r1, r2 R) bool
	// Predict extrapolates the fit probes r1 and r2 to n periods past
	// C1, in exact integer arithmetic.
	Predict func(r1, r2 R, n int64) R
	// Equal reports whether a prediction matches a probe bit for bit.
	Equal func(pred, probe R) bool
	// Next, when set, returns the first fit probe advanced by one
	// period of the given length, with ok=true only when that probe
	// carries the authority's certificate of exact recurrence at this
	// period. The result stands in for the second fit probe, and the
	// certificate for every verification probe.
	Next func(r1 R, period int64) (r2 R, ok bool)

	counts *fitCounts // nil until Register
}

// fitCounts counts one registered family's fits.
type fitCounts struct {
	name                        string
	fitted, certified, rejected atomic.Int64
}

// registry holds every registered family's counts.
var registry struct {
	mu     sync.Mutex
	counts []*fitCounts
}

// Register enrolls f in the process-wide fit counts under name and
// returns it. Families are package-level values registered once, at
// initialization; a name registered twice shares one count.
func Register[R any](name string, f Family[R]) *Family[R] {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counts {
		if c.name == name {
			f.counts = c
			return &f
		}
	}
	f.counts = &fitCounts{name: name}
	registry.counts = append(registry.counts, f.counts)
	return &f
}

// FitCount is one registered family's fit tally since the process
// started: fits admitted as laws, the part of them a certificate
// admitted from one probe, and fits rejected by a failed probe, the
// pair judgment or a verification mismatch.
type FitCount struct {
	Family    string
	Fitted    int64
	Certified int64
	Rejected  int64
}

// FitCounts returns every registered family's tally, sorted by family
// name.
func FitCounts() []FitCount {
	registry.mu.Lock()
	out := make([]FitCount, 0, len(registry.counts))
	for _, c := range registry.counts {
		out = append(out, FitCount{Family: c.name, Fitted: c.fitted.Load(), Certified: c.certified.Load(), Rejected: c.rejected.Load()})
	}
	registry.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Family < out[j].Family })
	return out
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
// A certificate on the first probe (Next) admits the law from that
// probe alone. A registered family counts the outcome of every fit it
// probes for.
func (f *Family[R]) Fit(period, residue int64, probe func(words int64) (R, bool)) *Law[R] {
	if period <= 0 || residue < 0 || residue >= period {
		return nil
	}
	l, certified := f.fit(period, residue, probe)
	if f.counts != nil {
		switch {
		case l == nil:
			f.counts.rejected.Add(1)
		case certified:
			f.counts.certified.Add(1)
			fallthrough
		default:
			f.counts.fitted.Add(1)
		}
	}
	return l
}

// fit is Fit on a valid residue class, uncounted; certified reports a
// law admitted by the first probe's certificate.
func (f *Family[R]) fit(period, residue int64, probe func(words int64) (R, bool)) (l *Law[R], certified bool) {
	run := func(c int64) (R, bool) { return probe(c*period + residue) }
	r1, ok := run(f.C1)
	if !ok {
		return nil, false
	}
	if f.Next != nil {
		if r2, ok := f.Next(r1, period); ok {
			if f.Pair != nil && !f.Pair(r1, r2) {
				return nil, false
			}
			return &Law[R]{f: f, period: period, residue: residue, r1: r1, r2: r2}, true
		}
	}
	r2, ok := run(f.C1 + 1)
	if !ok || f.Pair != nil && !f.Pair(r1, r2) {
		return nil, false
	}
	check := func(c int64) bool {
		r, ok := run(c)
		return ok && f.Equal(f.Predict(r1, r2, c-f.C1), r)
	}
	for _, c := range f.Verify {
		if !check(c) {
			return nil, false
		}
	}
	return &Law[R]{f: f, period: period, residue: residue, r1: r1, r2: r2}, false
}

// Reaches reports whether a law of the family with this period would
// cover words, in words' own residue class: at or past the first fit
// probe and at most MaxWords.
func (f *Family[R]) Reaches(period, words int64) bool {
	return words >= f.C1*period+words%period && words <= MaxWords
}

// LCM returns the least common multiple of two periods, the period
// that keeps the residue of a word count modulo each; a zero period
// (no law) leaves the other unchanged.
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return a + b
	}
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// Covers reports whether the law may answer for words.
func (l *Law[R]) Covers(words int64) bool {
	return words%l.period == l.residue && l.f.Reaches(l.period, words)
}

// At extrapolates the law to words, which it must cover.
func (l *Law[R]) At(words int64) R {
	return l.f.Predict(l.r1, l.r2, words/l.period-l.f.C1)
}
