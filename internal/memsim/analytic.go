package memsim

import "ctcomm/internal/pattern"

// Analytic extrapolation support.
//
// Because all simulator accounting is exact integer femtoseconds, every
// steady-state run cost is EXACTLY affine in the number of whole
// periods executed: Result(c·P+r) = A + c·D for fixed residue r, with A
// and D integer-valued. The analytic sweep layer (internal/xfer) fits A
// and D from two probe runs one period apart, verifies the law bitwise
// on further probes — or takes both from one run that carries a
// recurrence certificate (Cert) — and then emits Results for any word
// count by pure integer arithmetic, bit-identical to running the
// engine, because the float fields are re-derived from the integer fs
// fields exactly as endRun derives them.
//
// This file holds the two memsim-side pieces of that contract: the
// period of the engine (DMA/deposit) path, which has no fast-forward of
// its own, and the integer-domain extrapolation of a fitted law.
// StreamPeriod (ff.go) is the processor-path counterpart.

// EnginePeriod returns the structural steady-state period, in payload
// words, of an engine transfer over st (EngineRead / EngineWrite), or
// 0 when the pattern has no affine steady state. Engines bypass the
// cache entirely, so only the DRAM page phase matters: the period is
// the least word count after which the stream address advances by a
// whole multiple of PageBytes (claim/claimEngine costs depend on the
// address only through its page, and engineRun resets freeAt, so state
// at period boundaries recurs shifted by constant time and one page).
func (m *Memory) EnginePeriod(st *pattern.Stream) int {
	if st == nil {
		return 0
	}
	if st.Base()%int64(m.cfg.LineBytes) != 0 {
		return 0
	}
	page := int64(m.cfg.PageBytes)
	if page%int64(m.cfg.LineBytes) != 0 {
		return 0
	}
	switch st.Spec().Kind() {
	case pattern.KindContig:
		return int(page / pattern.WordBytes)
	case pattern.KindStrided:
		stride, block := int64(st.Spec().Stride()), int64(st.Spec().Block())
		if stride < block || block < 1 {
			// Overlapping runs revisit addresses; not monotone.
			return 0
		}
		// One run of block words advances the address by stride words.
		runs := page / gcd64(stride*pattern.WordBytes, page)
		period := runs * block
		if period > ffMaxPeriod {
			return 0
		}
		return int(period)
	default:
		return 0
	}
}

// PredictLinear extrapolates a fitted steady-state law: given Results
// r1 and r2 for runs exactly one period apart in length (c and c+1
// whole periods, same residue), it returns the Result for the run c+n
// periods long — every integer field advanced by n times the per-period
// delta, the float fields re-derived from the integer fs fields the
// same way endRun derives them. n may be 0 (returns r1's law point
// re-derived) but not negative. The caller owns verification that the
// law actually holds (probe runs at further period counts must match
// bitwise); PredictLinear is pure arithmetic.
func PredictLinear(r1, r2 Result, n int64) Result {
	return counters(r1, r2, func(a, b int64) int64 { return a + n*(b-a) })
}

// counters is the Result whose every integer counter is f of the
// counters of the same name in a and b, its float fields re-derived
// from its fs fields as endRun derives them, and FastForwarded a's.
// It is the one list of Result's counters that law arithmetic (Cert,
// PredictLinear) goes through.
func counters(a, b Result, f func(a, b int64) int64) Result {
	res := Result{
		PayloadBytes:  f(a.PayloadBytes, b.PayloadBytes),
		Loads:         f(a.Loads, b.Loads),
		Stores:        f(a.Stores, b.Stores),
		CacheHits:     f(a.CacheHits, b.CacheHits),
		CacheMisses:   f(a.CacheMisses, b.CacheMisses),
		RowHits:       f(a.RowHits, b.RowHits),
		RowMisses:     f(a.RowMisses, b.RowMisses),
		ElapsedFs:     f(a.ElapsedFs, b.ElapsedFs),
		DRAMBusyFs:    f(a.DRAMBusyFs, b.DRAMBusyFs),
		FastForwarded: a.FastForwarded,
	}
	res.ElapsedNs = toNs(res.ElapsedFs)
	res.DRAMBusyNs = toNs(res.DRAMBusyFs)
	return res
}
