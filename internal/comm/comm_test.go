package comm

import (
	"math"
	"testing"

	"ctcomm/internal/machine"
	"ctcomm/internal/model"
	"ctcomm/internal/pattern"
)

const bigWords = 1 << 15 // 256 KB, far beyond caches

func run(t *testing.T, m *machine.Machine, style Style, x, y pattern.Spec, opt Options) Result {
	t.Helper()
	if opt.Words == 0 {
		opt.Words = bigWords
	}
	res, err := Run(m, style, x, y, opt)
	if err != nil {
		t.Fatalf("%s %v %sQ%s: %v", m.Name, style, x, y, err)
	}
	return res
}

func TestStyleString(t *testing.T) {
	for s, want := range map[Style]string{
		BufferPacking: "buffer-packing", Chained: "chained", Direct: "direct", PVM: "pvm",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	m := machine.T3D()
	if _, err := Run(m, BufferPacking, pattern.Fixed(), pattern.Contig(), Options{Words: 10}); err == nil {
		t.Error("port pattern should fail")
	}
	if _, err := Run(m, BufferPacking, pattern.Contig(), pattern.Contig(), Options{Words: 0}); err == nil {
		t.Error("zero words should fail")
	}
	if _, err := Run(m, Style(99), pattern.Contig(), pattern.Contig(), Options{Words: 10}); err == nil {
		t.Error("unknown style should fail")
	}
}

func TestChainedBeatsPackingOnT3DStrided(t *testing.T) {
	// The paper's comparison is the duplex steady state: every node
	// sends and receives simultaneously, so the gather, send and scatter
	// of buffer packing all contend for the one processor while the
	// chained receive rides the deposit engine.
	m := machine.T3D()
	for _, pat := range [][2]pattern.Spec{
		{pattern.Contig(), pattern.Strided(64)},
		{pattern.Strided(64), pattern.Contig()},
		{pattern.Indexed(), pattern.Indexed()},
	} {
		packed := run(t, m, BufferPacking, pat[0], pat[1], Options{Duplex: true})
		chained := run(t, m, Chained, pat[0], pat[1], Options{Duplex: true})
		if chained.MBps() <= packed.MBps() {
			t.Errorf("T3D %sQ%s: chained %.1f <= packed %.1f MB/s",
				pat[0], pat[1], chained.MBps(), packed.MBps())
		}
	}
}

func TestChainedBeatsPackingOnParagonStrided(t *testing.T) {
	m := machine.Paragon()
	for _, pat := range [][2]pattern.Spec{
		{pattern.Contig(), pattern.Strided(64)},
		{pattern.Strided(64), pattern.Contig()},
		{pattern.Indexed(), pattern.Indexed()},
	} {
		packed := run(t, m, BufferPacking, pat[0], pat[1], Options{Duplex: true})
		chained := run(t, m, Chained, pat[0], pat[1], Options{Duplex: true})
		if chained.MBps() <= packed.MBps() {
			t.Errorf("Paragon %sQ%s: chained %.1f <= packed %.1f MB/s",
				pat[0], pat[1], chained.MBps(), packed.MBps())
		}
	}
}

func TestT3DContiguousChainedNearNetworkRate(t *testing.T) {
	// 1Q'1 should approach min(1S0, Nd@2, 0D1) = Nd@2 ~ 69-71 MB/s.
	m := machine.T3D()
	res := run(t, m, Chained, pattern.Contig(), pattern.Contig(), Options{})
	if got := res.MBps(); got < 55 || got > 75 {
		t.Errorf("T3D 1Q'1 = %.1f MB/s, want ~60-71", got)
	}
}

func TestT3DPackedTransposeNearPaper(t *testing.T) {
	// §3.4.1: the 1024-stride packed transpose measured 20.0 MB/s
	// (estimated 25.0). Accept the band between.
	m := machine.T3D()
	res := run(t, m, BufferPacking, pattern.Contig(), pattern.Strided(1024),
		Options{Duplex: true})
	if got := res.MBps(); got < 15 || got > 28 {
		t.Errorf("T3D duplex packed 1Q1024 = %.1f MB/s, want ~20-25", got)
	}
}

func TestPVMSlowerThanPacking(t *testing.T) {
	for _, m := range machine.Profiles() {
		pvm := run(t, m, PVM, pattern.Contig(), pattern.Contig(), Options{})
		packed := run(t, m, BufferPacking, pattern.Contig(), pattern.Contig(), Options{})
		if pvm.MBps() >= packed.MBps() {
			t.Errorf("%s: PVM %.1f >= packed %.1f MB/s", m.Name, pvm.MBps(), packed.MBps())
		}
	}
}

func TestPVMOverheadDominatesSmallMessages(t *testing.T) {
	m := machine.T3D()
	small := run(t, m, PVM, pattern.Contig(), pattern.Contig(), Options{Words: 128})
	big := run(t, m, PVM, pattern.Contig(), pattern.Contig(), Options{Words: 1 << 16})
	if small.MBps() >= big.MBps()/4 {
		t.Errorf("PVM small-message rate %.2f not dominated by overhead (big %.2f)",
			small.MBps(), big.MBps())
	}
}

func TestDirectFastestForContiguous(t *testing.T) {
	for _, m := range machine.Profiles() {
		direct := run(t, m, Direct, pattern.Contig(), pattern.Contig(), Options{})
		packed := run(t, m, BufferPacking, pattern.Contig(), pattern.Contig(), Options{})
		if direct.MBps() <= packed.MBps() {
			t.Errorf("%s: direct %.1f <= packed %.1f MB/s", m.Name, direct.MBps(), packed.MBps())
		}
	}
}

func TestDirectFallsBackForStrided(t *testing.T) {
	m := machine.Paragon()
	d := run(t, m, Direct, pattern.Contig(), pattern.Strided(64), Options{})
	p := run(t, m, BufferPacking, pattern.Contig(), pattern.Strided(64), Options{})
	if d.MBps() != p.MBps() {
		t.Errorf("direct strided should equal packed: %.2f vs %.2f", d.MBps(), p.MBps())
	}
}

func TestDuplexPenalizesParagonChained(t *testing.T) {
	// In duplex mode the Paragon's processor and co-processor interleave
	// memory accesses on the shared bus, and the paper measured up to a
	// 50% penalty for that (§5.1.4). The T3D deposit engine is immune.
	m := machine.Paragon()
	pair := run(t, m, Chained, pattern.Contig(), pattern.Strided(64), Options{})
	dup := run(t, m, Chained, pattern.Contig(), pattern.Strided(64), Options{Duplex: true})
	if dup.MBps() >= pair.MBps() {
		t.Errorf("Paragon duplex chained %.1f >= pairwise %.1f MB/s", dup.MBps(), pair.MBps())
	}
}

func TestOverlapUnpackHelpsBufferPacking(t *testing.T) {
	// §5.1.3: overlapping the unpack copy with the block transfer raises
	// buffer-packing throughput when a co-processor attends the DMAs.
	m := machine.Paragon()
	seq := run(t, m, BufferPacking, pattern.Contig(), pattern.Strided(64), Options{})
	ovl := run(t, m, BufferPacking, pattern.Contig(), pattern.Strided(64), Options{OverlapUnpack: true})
	if ovl.MBps() <= seq.MBps() {
		t.Errorf("overlapped packing %.1f <= sequential %.1f MB/s", ovl.MBps(), seq.MBps())
	}
}

func TestDuplexChainedUnaffectedOnT3D(t *testing.T) {
	// Chained receive runs on the deposit engine, so duplex costs the
	// T3D (single processor, penalty-free bus model) almost nothing —
	// this is exactly why chaining wins for all-to-all patterns.
	m := machine.T3D()
	pair := run(t, m, Chained, pattern.Contig(), pattern.Strided(64), Options{})
	dup := run(t, m, Chained, pattern.Contig(), pattern.Strided(64), Options{Duplex: true})
	if dup.MBps() < 0.9*pair.MBps() {
		t.Errorf("T3D duplex chained %.1f much slower than pairwise %.1f", dup.MBps(), pair.MBps())
	}
}

// TestDuplexMemoryBusCap checks the paper's resource constraint (§3.4,
// rule "<") where it is applied: with every node sending and receiving
// at once, twice an operation's rate crosses the node's memory bus, so
// a duplex operation runs at most at BusMBps/2, and exactly there when
// the bus is the bottleneck.
func TestDuplexMemoryBusCap(t *testing.T) {
	for _, m := range []*machine.Machine{machine.T3D(), machine.Paragon()} {
		for _, style := range []Style{BufferPacking, Chained, Direct, PVM} {
			res, err := Run(m, style, pattern.Contig(), pattern.Contig(), Options{Words: bigWords, Duplex: true})
			if err != nil {
				t.Fatalf("%s %v: %v", m.Name, style, err)
			}
			if res.MBps() > m.BusMBps/2 {
				t.Errorf("%s %v duplex %.1f MB/s exceeds half the %.0f MB/s bus", m.Name, style, res.MBps(), m.BusMBps)
			}
		}
	}
	m := machine.T3D()
	m.BusMBps = 20
	for _, style := range []Style{BufferPacking, Chained, Direct, PVM} {
		free := run(t, m, style, pattern.Contig(), pattern.Contig(), Options{})
		dup := run(t, m, style, pattern.Contig(), pattern.Contig(), Options{Duplex: true})
		if free.MBps() <= m.BusMBps/2 || dup.MBps() != m.BusMBps/2 {
			t.Errorf("%v on a %.0f MB/s bus: duplex %v MB/s, want exactly %v (pairwise %.1f)",
				style, m.BusMBps, dup.MBps(), m.BusMBps/2, free.MBps())
		}
	}
}

func TestCongestionReducesThroughput(t *testing.T) {
	m := machine.T3D()
	c2 := run(t, m, Chained, pattern.Contig(), pattern.Contig(), Options{Congestion: 2})
	c4 := run(t, m, Chained, pattern.Contig(), pattern.Contig(), Options{Congestion: 4})
	if c4.MBps() >= c2.MBps() {
		t.Errorf("congestion 4 %.1f >= congestion 2 %.1f", c4.MBps(), c2.MBps())
	}
}

func TestChainedImpossibleWithoutEngines(t *testing.T) {
	m := machine.Paragon()
	m.Deposit.Present = false
	m.CoProcessor = false
	if _, err := Run(m, Chained, pattern.Contig(), pattern.Strided(64), Options{Words: 1024}); err == nil {
		t.Error("chained without deposit engine or co-processor should fail")
	}
}

func TestResultStagesPopulated(t *testing.T) {
	m := machine.T3D()
	res := run(t, m, BufferPacking, pattern.Indexed(), pattern.Indexed(), Options{})
	if len(res.Stages) != 5 {
		t.Fatalf("packed stages = %d, want 5", len(res.Stages))
	}
	if res.Stages[0].Name != "wC1" || res.Stages[4].Name != "1Cw" {
		t.Errorf("stage names wrong: %+v", res.Stages)
	}
}

func TestCongestionFor(t *testing.T) {
	t3d := machine.T3D()
	// Shared ports make even a shift run at congestion 2 on the T3D.
	if got := CongestionFor(t3d, ShiftPattern); got != 2 {
		t.Errorf("T3D shift congestion = %v, want 2", got)
	}
	par := machine.Paragon()
	if got := CongestionFor(par, ShiftPattern); got < 1 || got > 2 {
		t.Errorf("Paragon shift congestion = %v, want 1..2", got)
	}
	if got := CongestionFor(t3d, Pairwise); got < 1 {
		t.Errorf("pairwise congestion = %v", got)
	}
	if got := CongestionFor(t3d, AllToAllPattern); got != 2 {
		t.Errorf("T3D AAPC congestion = %v, want 2 (schedulable)", got)
	}
}

func TestTrafficKindString(t *testing.T) {
	for k, want := range map[TrafficKind]string{
		Pairwise: "pairwise", ShiftPattern: "shift", AllToAllPattern: "all-to-all",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestThroughputGrowsThenPlateausWithSize(t *testing.T) {
	// Figure 1 shape: throughput rises with block size and saturates.
	m := machine.T3D()
	var prev float64
	for _, words := range []int{64, 512, 4096, 1 << 15, 1 << 17} {
		res := run(t, m, Direct, pattern.Contig(), pattern.Contig(), Options{Words: words})
		if res.MBps() < prev*0.95 {
			t.Errorf("throughput dropped at %d words: %.1f after %.1f", words, res.MBps(), prev)
		}
		prev = res.MBps()
	}
	if prev < 50 {
		t.Errorf("saturated direct rate %.1f MB/s too low", prev)
	}
}

func TestFig1CurveIsHockneyShaped(t *testing.T) {
	// The simulated library curves follow the classic r-inf/n-half law:
	// fitting a two-parameter Hockney curve to the measured points must
	// reproduce them nearly exactly, and PVM's half-performance length
	// must dwarf the fast library's (overhead dominates it far longer).
	m := machine.T3D()
	sizes := []int64{256, 2048, 16384, 131072, 1 << 20}
	fit := func(style Style) model.RateCurve {
		t.Helper()
		rates := make([]float64, len(sizes))
		for i, bytes := range sizes {
			res, err := Run(m, style, pattern.Contig(), pattern.Contig(),
				Options{Words: int(bytes / 8)})
			if err != nil {
				t.Fatal(err)
			}
			rates[i] = res.MBps()
		}
		c, err := model.FitRateCurve(sizes, rates)
		if err != nil {
			t.Fatal(err)
		}
		for i, bytes := range sizes {
			got := float64(bytes) * 1e3 / (c.StartupNs + float64(bytes)*1e3/c.RInfMBps)
			if e := math.Abs(got-rates[i]) / rates[i]; e > 0.05 {
				t.Errorf("%v: Hockney fit error %.3f at %d B", style, e, bytes)
			}
		}
		return c
	}
	direct := fit(Direct)
	pvm := fit(PVM)
	if pvm.NHalfBytes() < 20*direct.NHalfBytes() {
		t.Errorf("PVM n-half %.0f B should dwarf direct %.0f B",
			pvm.NHalfBytes(), direct.NHalfBytes())
	}
	if direct.RInfMBps < pvm.RInfMBps {
		t.Errorf("direct asymptotic rate %.1f below PVM %.1f", direct.RInfMBps, pvm.RInfMBps)
	}
}

// Property: elapsed time grows monotonically with message size for
// every style (throughput may vary, time may not shrink).
func TestElapsedMonotoneInWordsProperty(t *testing.T) {
	m := machine.T3D()
	for _, style := range []Style{BufferPacking, Chained, Direct, PVM} {
		prev := 0.0
		for _, words := range []int{64, 256, 1024, 4096, 16384} {
			res, err := Run(m, style, pattern.Contig(), pattern.Strided(64),
				Options{Words: words})
			if err != nil {
				t.Fatal(err)
			}
			if res.ElapsedNs <= prev {
				t.Errorf("%v: elapsed not monotone at %d words", style, words)
			}
			prev = res.ElapsedNs
		}
	}
}

func TestBlockStridedOperations(t *testing.T) {
	// The §2.2 block classes flow through whole operations: a 2-word
	// (complex) block-strided chained scatter beats the single-word one.
	m := machine.T3D()
	plain := run(t, m, Chained, pattern.Contig(), pattern.Strided(64), Options{Duplex: true})
	blocked := run(t, m, Chained, pattern.Contig(), pattern.StridedBlock(64, 2), Options{Duplex: true})
	if blocked.MBps() < plain.MBps() {
		t.Errorf("1Q'64x2 %.1f < 1Q'64 %.1f MB/s", blocked.MBps(), plain.MBps())
	}
}

func TestResultMBpsZeroElapsed(t *testing.T) {
	if (Result{PayloadBytes: 100}).MBps() != 0 {
		t.Error("zero elapsed should be 0 MB/s")
	}
}
