package collective

import (
	"reflect"
	"sync"
	"testing"

	"ctcomm/internal/machine"
)

// TestWordsPeriodValues pins the structural periods of the
// single-block (pairwise) schedules against hand-computed values from
// the profiles' packet and chunk constants: P aligns 8 bytes/word to
// whole packets, then the wire growth to whole chunks.
func TestWordsPeriodValues(t *testing.T) {
	cases := []struct {
		mach string
		want int64
	}{
		// t3d: 16 words = 1 packet (128B payload + 16B header = 144B
		// wire); 32 packets = 9*512B chunks.
		{"Cray T3D", 512},
		// paragon: 32 words = 1 headerless 256B packet; 2 packets = 1
		// chunk.
		{"Intel Paragon", 64},
		// cluster: 256 words = 1 packet (2048+64 = 2112B wire); 8
		// packets = 33 chunks.
		{"Multicore Cluster", 2048},
		// xe6: 8 words = 1 packet (64+16 = 80B wire); 32 packets = 5
		// chunks.
		{"Cray XE6", 256},
	}
	for _, c := range cases {
		m := machine.ByName(c.mach)
		if m == nil {
			t.Fatalf("no profile %q", c.mach)
		}
		p, err := New(AllToAll, Pairwise, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := wordsPeriod(m, p.Schedule); got != c.want {
			t.Errorf("%s: wordsPeriod = %d, want %d", c.mach, got, c.want)
		}
	}

	// A multi-block schedule folds every distinct block count into the
	// lcm: cluster doubling all-to-all moves 32-block messages, whose
	// larger per-word step needs only 2048/32 = 64 words per period.
	m := machine.ByName("Multicore Cluster")
	p, err := New(AllToAll, Doubling, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := wordsPeriod(m, p.Schedule); got != 64 {
		t.Errorf("cluster doubling: wordsPeriod = %d, want 64", got)
	}
}

// TestWordsLawBitIdentical is the admission contract at the session
// level: for every machine, operation and strategy, a law-covered
// word count must produce an Eval identical — every field, makespan
// bits included — to the direct evaluator, and the law must actually
// engage on the affine families.
func TestWordsLawBitIdentical(t *testing.T) {
	nodes := 16
	if testing.Short() {
		nodes = 8
	}
	for _, m := range machine.AllProfiles() {
		s := NewSession()
		for _, op := range allOps {
			for _, st := range Strategies() {
				p, err := New(op, st, nodes, 3)
				if err != nil {
					continue // e.g. prime node counts; covered elsewhere
				}
				period := wordsPeriod(m, p.Schedule)
				if period == 0 {
					continue
				}
				// One covered residue-0 count, one covered off-residue
				// count, one below coverage (fallback path).
				for _, words := range []int64{2 * period, 3*period + 17, period - 1} {
					if words <= 0 {
						continue
					}
					got, fromLaw, err := s.Evaluate(m, op, st, nodes, 3, int(words), false)
					if err != nil {
						t.Fatalf("%s %s/%s words=%d: %v", m.Name, op, st, words, err)
					}
					want, err := p.Evaluate(m, int(words), false)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s %s/%s words=%d (law=%t): session %+v != engine %+v",
							m.Name, op, st, words, fromLaw, got, want)
					}
					if words < period && fromLaw {
						t.Errorf("%s %s/%s words=%d: below coverage but answered by law", m.Name, op, st, words)
					}
				}
			}
		}
	}
}

// TestWordsLawRejectsNonAffine pins the far-probe rejection: Paragon's
// pairwise all-to-all runs congested engine phases on the mesh whose
// makespan is NOT affine in words, so no law may certify — and the
// session must still answer bit-identically through the evaluator.
func TestWordsLawRejectsNonAffine(t *testing.T) {
	m := machine.ByName("Intel Paragon")
	p, err := New(AllToAll, Pairwise, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	period := wordsPeriod(m, p.Schedule)
	if period == 0 {
		t.Fatal("paragon pairwise all-to-all has no structural period; expected 64")
	}
	if fitWordsLaw(p, m, false, period, 0) != nil {
		t.Error("fitWordsLaw certified paragon pairwise all-to-all; the far probe should reject it")
	}
	s := NewSession()
	words := int(4 * period)
	got, fromLaw, err := s.Evaluate(m, AllToAll, Pairwise, 64, 0, words, false)
	if err != nil {
		t.Fatal(err)
	}
	if fromLaw {
		t.Error("session answered a rejected family from a law")
	}
	want, err := p.Evaluate(m, words, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fallback differs from evaluator:\nsession %+v\nengine  %+v", got, want)
	}
}

// The session memoizes planning errors with the exact text the
// batchless path reports.
func TestSessionPlanError(t *testing.T) {
	s := NewSession()
	m := machine.T3D()
	_, _, err := s.Evaluate(m, AllToAll, Doubling, 48, 0, 64, false)
	if err == nil {
		t.Fatal("no error for doubling over 48 nodes")
	}
	_, wantErr := New(AllToAll, Doubling, 48, 0)
	if wantErr == nil || err.Error() != wantErr.Error() {
		t.Errorf("session error %q != planner error %q", err, wantErr)
	}
	// Memoized: same text again.
	_, _, err2 := s.Evaluate(m, AllToAll, Doubling, 48, 0, 64, false)
	if err2 == nil || err2.Error() != err.Error() {
		t.Errorf("memoized error %q != first error %q", err2, err)
	}
}

// Concurrent cells hitting the same family must fit exactly once and
// agree bit for bit (run under -race in CI).
func TestSessionConcurrent(t *testing.T) {
	m := machine.T3D()
	s := NewSession()
	p, err := New(Shift, Pairwise, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	period := wordsPeriod(m, p.Schedule)
	words := int(2 * period)
	want, err := p.Evaluate(m, words, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]Eval, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ev, _, err := s.Evaluate(m, Shift, Pairwise, 16, 1, words, false)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ev
		}(i)
	}
	wg.Wait()
	for i, ev := range results {
		if !reflect.DeepEqual(ev, want) {
			t.Errorf("goroutine %d: %+v != %+v", i, ev, want)
		}
	}
}
