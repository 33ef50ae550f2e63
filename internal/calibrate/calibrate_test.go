package calibrate

import (
	"math"
	"sync"
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/memsim"
	"ctcomm/internal/model"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
)

// paperBands lists the paper's measured rates (Tables 1-3) with the
// relative tolerance each simulated value must meet. Most entries hold
// within ±25%; the wider bands are documented calibration deviations
// (see EXPERIMENTS.md): the Paragon's measured indexed transfers are
// anomalously fast relative to its strided ones (wC1 = 45.1 > 64C1 =
// 31.1 even though both miss every cache line), a quirk of i860
// pipelined-load code scheduling our mechanism-level simulator does not
// reproduce.
var paperBands = map[string]map[string]struct {
	want float64
	tol  float64
}{
	"Cray T3D": {
		"1C1": {93, 0.15}, "1C64": {67.9, 0.15}, "64C1": {33.3, 0.25},
		"1Cw": {38.5, 0.25}, "wC1": {32.9, 0.20},
		"1S0": {126, 0.10}, "64S0": {35, 0.25}, "wS0": {32, 0.15},
		"0D1": {142, 0.10}, "0D64": {52, 0.15}, "0Dw": {52, 0.15},
	},
	"Intel Paragon": {
		"1C1": {67.6, 0.25}, "1C64": {27.6, 0.35}, "64C1": {31.1, 0.50},
		"1Cw": {35.2, 0.45}, "wC1": {45.1, 0.50},
		"1S0": {52, 0.25}, "1F0": {160, 0.10}, "64S0": {42, 0.15}, "wS0": {36, 0.40},
		"0R1": {82, 0.20}, "0R64": {38, 0.15}, "0Rw": {42, 0.15}, "0D1": {160, 0.10},
	},
}

func TestCalibrationMatchesPaperTables(t *testing.T) {
	for _, m := range machine.Profiles() {
		tab := Measure(m, 1<<16)
		for key, band := range paperBands[m.Name] {
			got, ok := tab.Get(key)
			if !ok {
				t.Errorf("%s: %s not measured", m.Name, key)
				continue
			}
			if math.Abs(got-band.want)/band.want > band.tol {
				t.Errorf("%s %s = %.1f MB/s, paper %.1f (tolerance ±%.0f%%)",
					m.Name, key, got, band.want, band.tol*100)
			}
		}
	}
}

// The orderings the paper's optimization insights rest on must hold
// exactly, not just within tolerance.
func TestCalibrationOrderings(t *testing.T) {
	t3d := Measure(machine.T3D(), 1<<16)
	par := Measure(machine.Paragon(), 1<<16)
	gt := func(tab *Table, a, b string) {
		t.Helper()
		ra, _ := tab.Get(a)
		rb, _ := tab.Get(b)
		if ra <= rb {
			t.Errorf("%s: %s (%.1f) should exceed %s (%.1f)", tab.Machine, a, ra, b, rb)
		}
	}
	// T3D: strided stores beat strided loads (write queue, Fig. 4).
	gt(t3d, "1C64", "64C1")
	gt(t3d, "1Cw", "wC1")
	// Paragon: strided loads beat strided stores (PFQ, Fig. 4).
	gt(par, "64C1", "1C64")
	// Contiguous beats strided everywhere.
	gt(t3d, "1C1", "1C64")
	gt(par, "1C1", "64C1")
	// The T3D deposit engine outruns any Paragon-style kicked DMA path
	// for strided patterns.
	gt(t3d, "0D64", "wS0")
	// Paragon DMA send crushes processor send for contiguous blocks.
	gt(par, "1F0", "1S0")
}

func TestMeasureSkipsUnsupported(t *testing.T) {
	tab := Measure(machine.T3D(), 1<<12)
	if _, ok := tab.Get("1F0"); ok {
		t.Error("T3D has no fetch engine; 1F0 must be absent")
	}
	ptab := Measure(machine.Paragon(), 1<<12)
	if _, ok := ptab.Get("0D64"); ok {
		t.Error("Paragon DMA cannot deposit strided; 0D64 must be absent")
	}
	if _, ok := ptab.Get("64F0"); ok {
		t.Error("Paragon DMA cannot fetch strided; 64F0 must be absent")
	}
}

func TestKeyHelper(t *testing.T) {
	if got := Key(pattern.Strided(64), 'C', pattern.Contig()); got != "64C1" {
		t.Errorf("Key = %q", got)
	}
}

func TestKeysSorted(t *testing.T) {
	tab := Measure(machine.T3D(), 1<<12)
	ks := tab.Keys()
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatal("keys not sorted")
		}
	}
}

func TestStrideSweepShape(t *testing.T) {
	// Figure 4: on the T3D the store-strided curve stays above the
	// load-strided curve for large strides; on the Paragon the opposite.
	strides := []int{2, 8, 32, 64}
	t3d := StrideSweep(machine.T3D(), strides, 1<<14)
	for _, p := range t3d {
		if p.Stride >= 8 && p.StoreStride <= p.LoadStrided {
			t.Errorf("T3D stride %d: store-strided %.1f <= load-strided %.1f",
				p.Stride, p.StoreStride, p.LoadStrided)
		}
	}
	par := StrideSweep(machine.Paragon(), strides, 1<<14)
	for _, p := range par {
		if p.Stride >= 32 && p.LoadStrided <= p.StoreStride {
			t.Errorf("Paragon stride %d: load-strided %.1f <= store-strided %.1f",
				p.Stride, p.LoadStrided, p.StoreStride)
		}
	}
}

func TestStrideSweepMonotoneDecline(t *testing.T) {
	// Throughput falls (or at worst stays flat) as stride grows.
	pts := StrideSweep(machine.T3D(), []int{2, 4, 8, 16, 32, 64}, 1<<14)
	for i := 1; i < len(pts); i++ {
		if pts[i].StoreStride > pts[i-1].StoreStride*1.05 {
			t.Errorf("store-strided rose at stride %d: %.1f after %.1f",
				pts[i].Stride, pts[i].StoreStride, pts[i-1].StoreStride)
		}
	}
}

func TestToRateTable(t *testing.T) {
	m := machine.T3D()
	rt := RateTableFor(m)
	r, err := rt.Rate(model.C(pattern.Contig(), pattern.Contig()))
	if err != nil || r <= 0 {
		t.Fatalf("1C1 from calibrated table: %v, %v", r, err)
	}
	// Network rates present for both modes at the canonical congestions.
	for _, mode := range []netsim.Mode{netsim.DataOnly, netsim.AddrData} {
		for _, c := range []float64{1, 2, 4} {
			nr, err := rt.NetRate(mode, c)
			if err != nil || nr <= 0 {
				t.Errorf("%v@%v: %v, %v", mode, c, nr, err)
			}
		}
	}
}

// The end-to-end consistency check of the whole lower stack: the model
// evaluated with the *calibrated* (simulator-measured) rate table must
// agree with the model evaluated with the *paper's* rate table on the
// central claim, chained vs. packed, for the canonical patterns.
func TestCalibratedModelPreservesPaperConclusions(t *testing.T) {
	for _, m := range machine.Profiles() {
		rt := RateTableFor(m)
		caps := model.CapsOf(m)
		for _, pat := range [][2]pattern.Spec{
			{pattern.Contig(), pattern.Strided(64)},
			{pattern.Strided(64), pattern.Contig()},
			{pattern.Indexed(), pattern.Indexed()},
		} {
			packedE := model.BufferPacking(caps, pat[0], pat[1])
			packed, err := model.Evaluate(packedE, rt, m.DefaultCongestion)
			if err != nil {
				t.Fatalf("%s packed: %v", m.Name, err)
			}
			chainedE, err := model.Chained(caps, pat[0], pat[1])
			if err != nil {
				t.Fatal(err)
			}
			chained, err := model.Evaluate(chainedE, rt, m.DefaultCongestion)
			if err != nil {
				t.Fatalf("%s chained: %v", m.Name, err)
			}
			if chained <= packed {
				t.Errorf("%s %sQ%s (calibrated table): chained %.1f <= packed %.1f",
					m.Name, pat[0], pat[1], chained, packed)
			}
		}
	}
}

func TestBlockStridedBeatsPlainStrided(t *testing.T) {
	// The paper's block-strided class (2-word runs, e.g. complex
	// numbers; §2.2): dense runs merge in the write queue / share cache
	// lines, so block-strided transfers must beat single-word strided
	// ones of the same stride on both machines.
	for _, m := range machine.Profiles() {
		tab := Measure(m, 1<<14)
		plain, ok1 := tab.Get("1C64")
		blocked, ok2 := tab.Get("1C64x2")
		if !ok1 || !ok2 {
			t.Fatalf("%s: missing entries (1C64 %v, 1C64x2 %v)", m.Name, ok1, ok2)
		}
		if blocked <= plain {
			t.Errorf("%s: 1C64x2 %.1f <= 1C64 %.1f", m.Name, blocked, plain)
		}
		plainL, _ := tab.Get("64C1")
		blockedL, ok := tab.Get("64x2C1")
		if !ok {
			t.Fatalf("%s: 64x2C1 not measured", m.Name)
		}
		if blockedL <= plainL {
			t.Errorf("%s: 64x2C1 %.1f <= 64C1 %.1f", m.Name, blockedL, plainL)
		}
	}
}

func TestMeasureMemoized(t *testing.T) {
	m := machine.T3D()
	h0, m0 := CacheStats()
	a := Measure(m, 1<<13)
	h1, m1 := CacheStats()
	if m1 != m0+1 {
		t.Fatalf("first Measure: misses %d -> %d, want one new miss", m0, m1)
	}
	b := Measure(m, 1<<13)
	h2, _ := CacheStats()
	if h2 != h1+1 {
		t.Fatalf("second Measure: hits %d -> %d, want one new hit", h1, h2)
	}
	_ = h0
	if len(a.Rates) != len(b.Rates) {
		t.Fatalf("cached table differs in size: %d vs %d", len(a.Rates), len(b.Rates))
	}
	for k, v := range a.Rates {
		if b.Rates[k] != v {
			t.Errorf("cached rate %s: %v != %v", k, b.Rates[k], v)
		}
	}
	// The returned table must be a private copy.
	a.Rates["1C1"] = -1
	c := Measure(m, 1<<13)
	if c.Rates["1C1"] == -1 {
		t.Error("Measure returned a shared table; mutation leaked into the cache")
	}
}

func TestMeasureReplaysAttribution(t *testing.T) {
	// Every Measure call must attribute the same simulator work to the
	// caller's Stats, whether it hits or misses the cache — that is what
	// keeps serial and parallel experiment runs byte-identical.
	var s1, s2 sim.Stats
	m1 := machine.T3D().Observe(&s1)
	Measure(m1, 1<<12)
	m2 := machine.T3D().Observe(&s2)
	Measure(m2, 1<<12)
	if s1.Accesses() == 0 {
		t.Fatal("first Measure attributed no accesses")
	}
	if s1.Accesses() != s2.Accesses() || s1.SimTime() != s2.SimTime() {
		t.Errorf("attribution differs: accesses %d vs %d, simNs %v vs %v",
			s1.Accesses(), s2.Accesses(), s1.SimTime(), s2.SimTime())
	}
}

func TestMeasureConcurrentSingleflight(t *testing.T) {
	var wg sync.WaitGroup
	tables := make([]*Table, 8)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = Measure(machine.Paragon(), 1<<11)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(tables); i++ {
		for k, v := range tables[0].Rates {
			if tables[i].Rates[k] != v {
				t.Fatalf("concurrent Measure %d: rate %s differs", i, k)
			}
		}
	}
}

// TestMeasureFastForwardExact: every rate table, the write-back
// hierarchical profiles included, is bit-identical with fast-forward on
// and off, and attributes the same simulated accesses and time.
func TestMeasureFastForwardExact(t *testing.T) {
	words := DefaultWords
	if testing.Short() {
		words = 1 << 15
	}
	for _, m := range machine.AllProfiles() {
		measure := func(ff memsim.FFMode) (*Table, *sim.Stats) {
			var st sim.Stats
			c := *m
			c.Mem.FastForward = ff
			c.Observe(&st)
			return Measure(&c, words), &st
		}
		on, onStats := measure(memsim.FastForwardAuto)
		off, offStats := measure(memsim.FastForwardOff)
		if len(on.Rates) != len(off.Rates) {
			t.Errorf("%s: %d rates with fast-forward, %d without", m.Name, len(on.Rates), len(off.Rates))
		}
		for k, r := range off.Rates {
			if got, ok := on.Rates[k]; !ok || math.Float64bits(got) != math.Float64bits(r) {
				t.Errorf("%s %s: fast-forward %v (present %v), exact %v", m.Name, k, got, ok, r)
			}
		}
		if onStats.Accesses() != offStats.Accesses() || onStats.SimTime() != offStats.SimTime() {
			t.Errorf("%s: attribution differs: fast-forward %d accesses / %v, exact %d / %v",
				m.Name, onStats.Accesses(), onStats.SimTime(), offStats.Accesses(), offStats.SimTime())
		}
	}
}
