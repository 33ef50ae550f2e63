package comm

import (
	"reflect"
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/pattern"
)

// sansProvenance zeroes the provenance counters, which legitimately
// differ between the engine and session paths; everything else must be
// bit-identical.
func sansProvenance(r Result) Result {
	r.AnalyticStages, r.EngineStages = 0, 0
	return r
}

// TestSessionBitIdentical is the comm-level half of the analytic sweep
// contract: Session.Run must reproduce Run EXACTLY — every stage rate,
// every elapsed time, bit for bit — across machines, styles, patterns,
// word counts (law-covered and fallback), congestion and duplex. The
// hierarchical profiles are write-back: their laws (for example the
// cluster's contiguous copy, period 4096 words, and the strided shapes
// of both) cover 2^17 and 2^17+37 words.
func TestSessionBitIdentical(t *testing.T) {
	pats := []pattern.Spec{pattern.Contig(), pattern.Strided(64), pattern.Indexed()}
	words := []int{1024, 4096, 1 << 17, 1<<17 + 37}
	if testing.Short() {
		words = []int{4096, 1 << 17}
	}
	sess := NewSession()
	sawAnalytic := map[string]bool{}
	for _, m := range machine.AllProfiles() {
		mWords := words
		if m.Mem.Policy == memsim.WriteBack {
			mWords = []int{1 << 17, 1<<17 + 37}
		}
		for _, x := range pats {
			for _, y := range pats {
				for _, style := range []Style{BufferPacking, Chained, Direct, PVM} {
					for _, w := range mWords {
						for _, duplex := range []bool{false, true} {
							opt := Options{Words: w, Duplex: duplex}
							ref, refErr := Run(m, style, x, y, opt)
							got, gotErr := sess.Run(m, style, x, y, opt)
							if (refErr == nil) != (gotErr == nil) {
								t.Errorf("%s %s %vQ%v w=%d duplex=%v: err mismatch: engine %v, session %v",
									m.Name, style, x, y, w, duplex, refErr, gotErr)
								continue
							}
							if refErr != nil {
								if refErr.Error() != gotErr.Error() {
									t.Errorf("%s %s %vQ%v w=%d: error text differs: %q vs %q",
										m.Name, style, x, y, w, refErr, gotErr)
								}
								continue
							}
							if got.AnalyticStages > 0 {
								sawAnalytic[m.Name] = true
							}
							if !reflect.DeepEqual(sansProvenance(got), sansProvenance(ref)) {
								t.Errorf("%s %s %vQ%v w=%d duplex=%v:\nsession %+v\nengine  %+v",
									m.Name, style, x, y, w, duplex, got, ref)
							}
						}
					}
				}
			}
		}
	}
	for _, m := range machine.AllProfiles() {
		if !sawAnalytic[m.Name] {
			t.Errorf("%s: no cell took the analytic path; the session never engaged its laws", m.Name)
		}
	}
	// Congestion only scales the network stage; the memoized mem stages
	// must still agree with the engine at a non-default factor.
	ref, err := Run(machine.T3D(), Direct, pattern.Contig(), pattern.Contig(), Options{Words: 1 << 17, Congestion: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Run(machine.T3D(), Direct, pattern.Contig(), pattern.Contig(), Options{Words: 1 << 17, Congestion: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sansProvenance(got), sansProvenance(ref)) {
		t.Errorf("congestion=4: session %+v != engine %+v", got, ref)
	}
}

// TestSessionAnalyticProvenance pins the provenance counters: a fully
// law-covered large transfer reports only analytic stages, an indexed
// (law-ineligible) one only engine stages.
func TestSessionAnalyticProvenance(t *testing.T) {
	sess := NewSession()
	m := machine.T3D()
	res, err := sess.Run(m, Direct, pattern.Contig(), pattern.Contig(), Options{Words: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticStages == 0 || res.EngineStages != 0 {
		t.Errorf("contig direct at 128K words: want all-analytic stages, got analytic=%d engine=%d",
			res.AnalyticStages, res.EngineStages)
	}
	// One period on, every transfer falls in the residue class its law
	// was fitted for, at the shape's own period, so no stage needs the
	// engine.
	p := WordsPeriod(m, Direct, pattern.Contig(), pattern.Contig())
	res, err = sess.Run(m, Direct, pattern.Contig(), pattern.Contig(), Options{Words: 1<<17 + int(p)})
	if err != nil {
		t.Fatal(err)
	}
	if p == 0 || res.AnalyticStages == 0 || res.EngineStages != 0 {
		t.Errorf("contig direct one period (%d words) on: want all-analytic stages, got analytic=%d engine=%d",
			p, res.AnalyticStages, res.EngineStages)
	}
	// 1000 words sits below every law's first fit probe (the shortest
	// period on either machine is 256 words, probed from 16 periods), so
	// even the contiguous sub-stages must use the engine.
	res, err = sess.Run(m, BufferPacking, pattern.Indexed(), pattern.Indexed(), Options{Words: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalyticStages != 0 || res.EngineStages == 0 {
		t.Errorf("indexed packing: want all-engine stages, got analytic=%d engine=%d",
			res.AnalyticStages, res.EngineStages)
	}
}
