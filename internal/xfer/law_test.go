package xfer

import (
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// lawKinds enumerates every transfer kind with the patterns it takes.
func lawKinds() []struct {
	kind Kind
	x, y pattern.Spec
} {
	specs := []pattern.Spec{
		pattern.Contig(), pattern.Strided(64), pattern.Strided(7),
		pattern.StridedBlock(64, 2), pattern.StridedBlock(16, 4),
	}
	var out []struct {
		kind Kind
		x, y pattern.Spec
	}
	for _, s := range specs {
		out = append(out,
			struct {
				kind Kind
				x, y pattern.Spec
			}{KindCopy, s, pattern.Contig()},
			struct {
				kind Kind
				x, y pattern.Spec
			}{KindCopy, pattern.Contig(), s},
			struct {
				kind Kind
				x, y pattern.Spec
			}{KindLoadSend, s, pattern.Spec{}},
			struct {
				kind Kind
				x, y pattern.Spec
			}{KindFetchSend, s, pattern.Spec{}},
			struct {
				kind Kind
				x, y pattern.Spec
			}{KindRecvStore, pattern.Spec{}, s},
			struct {
				kind Kind
				x, y pattern.Spec
			}{KindRecvDeposit, pattern.Spec{}, s},
		)
		if s.Kind() == pattern.KindStrided {
			// Strided on both sides: the short-period copies of the
			// hierarchical profiles, whose contiguous sides exceed
			// lawMaxPeriod on the XE6.
			out = append(out, struct {
				kind Kind
				x, y pattern.Spec
			}{KindCopy, s, s})
		}
	}
	return out
}

// engineEval runs the transfer kind on a fresh node — the point-query
// reference the law must reproduce bit for bit.
func engineEval(t *testing.T, m *machine.Machine, kind Kind, x, y pattern.Spec, words int) (Result, error) {
	t.Helper()
	n := m.NewNode(0)
	switch kind {
	case KindCopy:
		return Copy(n, x, y, words)
	case KindLoadSend:
		return LoadSend(n, x, words)
	case KindFetchSend:
		return FetchSend(n, x, words)
	case KindRecvStore:
		return RecvStore(n, y, words)
	case KindRecvDeposit:
		return RecvDeposit(n, y, words)
	}
	t.Fatalf("unknown kind %v", kind)
	return Result{}, nil
}

// TestLawBitIdentical is the xfer-level half of the analytic sweep
// bit-identity contract: for every machine, transfer kind and eligible
// pattern, Law.Eval must equal the fresh-node engine run EXACTLY — not
// approximately — across residues and word counts, including counts far
// beyond the probed prefix. The hierarchical profiles are write-back;
// their laws rest on the cache-translating fast-forward.
func TestLawBitIdentical(t *testing.T) {
	for _, m := range machine.AllProfiles() {
		for _, tc := range lawKinds() {
			p := PeriodOf(m, tc.kind, tc.x, tc.y)
			if p == 0 {
				continue // engine-only shape on this machine; covered below
			}
			for _, residue := range []int{0, 1, p - 1} {
				law := FitLaw(m, tc.kind, tc.x, tc.y, residue)
				if law == nil {
					// Fitting may legitimately fail (probe did not
					// certify); the fallback path covers it.
					continue
				}
				for _, c := range []int{lawC1, lawC1 + 1, lawC3 + 1, 64, 257} {
					words := c*p + residue
					if !law.Covers(words) {
						t.Errorf("%s %v %v/%v residue=%d: law must cover %d words", m.Name, tc.kind, tc.x, tc.y, residue, words)
						continue
					}
					got, err := law.Eval(words)
					if err != nil {
						t.Errorf("%s %v %v/%v words=%d: Eval: %v", m.Name, tc.kind, tc.x, tc.y, words, err)
						continue
					}
					want, err := engineEval(t, m, tc.kind, tc.x, tc.y, words)
					if err != nil {
						t.Errorf("%s %v %v/%v words=%d: engine: %v", m.Name, tc.kind, tc.x, tc.y, words, err)
						continue
					}
					if got != want {
						t.Errorf("%s %v %v/%v words=%d:\nlaw    %+v\nengine %+v", m.Name, tc.kind, tc.x, tc.y, words, got, want)
					}
				}
			}
		}
	}
}

// TestLawFallbackBoundary pins the shapes that must NOT get a law: the
// closed form silently yields to engine evaluation there.
func TestLawFallbackBoundary(t *testing.T) {
	for _, m := range machine.Profiles() {
		// Indexed patterns: the permutation depends on the word count.
		if p := PeriodOf(m, KindCopy, pattern.Indexed(), pattern.Contig()); p != 0 {
			t.Errorf("%s: indexed read must have no period, got %d", m.Name, p)
		}
		if p := PeriodOf(m, KindRecvStore, pattern.Spec{}, pattern.Indexed()); p != 0 {
			t.Errorf("%s: indexed recv-store must have no period, got %d", m.Name, p)
		}
		// Write-back caching keeps the processor-path period: the
		// fast-forward verifies and translates the cache (memsim ff.go).
		wb := *m
		wb.Mem.Policy = memsim.WriteBack
		if p := PeriodOf(&wb, KindCopy, pattern.Contig(), pattern.Contig()); p == 0 {
			t.Errorf("%s+writeback: copy must keep its period", m.Name)
		}
		// The engine paths bypass the cache, so they keep theirs too
		// (on machines whose engine supports the pattern at all).
		if m.Fetch.Supports(pattern.Contig()) {
			if p := PeriodOf(&wb, KindFetchSend, pattern.Contig(), pattern.Spec{}); p == 0 {
				t.Errorf("%s+writeback: fetch-send must keep its engine period", m.Name)
			}
		}
		if m.Deposit.Supports(pattern.Contig()) {
			if p := PeriodOf(&wb, KindRecvDeposit, pattern.Spec{}, pattern.Contig()); p == 0 {
				t.Errorf("%s+writeback: recv-deposit must keep its engine period", m.Name)
			}
		}
		// Fast-forward disabled disables processor-path laws.
		off := *m
		off.Mem.FastForward = memsim.FastForwardOff
		if p := PeriodOf(&off, KindCopy, pattern.Contig(), pattern.Contig()); p != 0 {
			t.Errorf("%s+ff-off: copy must have no period, got %d", m.Name, p)
		}
		// Residue out of range never fits.
		p := PeriodOf(m, KindCopy, pattern.Contig(), pattern.Contig())
		if p == 0 {
			t.Fatalf("%s: contiguous copy must be law-eligible", m.Name)
		}
		if FitLaw(m, KindCopy, pattern.Contig(), pattern.Contig(), p) != nil {
			t.Errorf("%s: residue == period must not fit", m.Name)
		}
		// Words below the first fit probe are not covered.
		law := FitLaw(m, KindCopy, pattern.Contig(), pattern.Contig(), 0)
		if law == nil {
			t.Fatalf("%s: contiguous copy law must fit", m.Name)
		}
		if law.Covers(lawC1*p - p) {
			t.Errorf("%s: %d words (below fit probe) must not be covered", m.Name, lawC1*p-p)
		}
		if law.Covers(lawC1*p + 1) {
			t.Errorf("%s: wrong residue must not be covered", m.Name)
		}
	}
}

// TestLawEvalAllocatesNothing pins that a law answer is pure
// arithmetic: no stream, no boxed runner, no allocation, for every
// kind and shape of lawKinds on every profile.
func TestLawEvalAllocatesNothing(t *testing.T) {
	fitted := 0
	for _, m := range machine.AllProfiles() {
		for _, tc := range lawKinds() {
			p := PeriodOf(m, tc.kind, tc.x, tc.y)
			if p == 0 {
				continue
			}
			law := FitLaw(m, tc.kind, tc.x, tc.y, 1%p)
			if law == nil {
				continue
			}
			fitted++
			words := 64*p + 1%p
			if allocs := testing.AllocsPerRun(20, func() {
				if _, err := law.Eval(words); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s %v %v/%v: Eval allocates %.0f times, want 0", m.Name, tc.kind, tc.x, tc.y, allocs)
			}
		}
	}
	if fitted == 0 {
		t.Fatal("no law fitted")
	}
}
