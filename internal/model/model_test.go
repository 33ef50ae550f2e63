package model

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ctcomm/internal/machine"
	"ctcomm/internal/netsim"
	"ctcomm/internal/pattern"
)

func almost(t *testing.T, name string, got, want, relTol float64) {
	t.Helper()
	if want == 0 {
		t.Fatalf("%s: zero reference", name)
	}
	if math.Abs(got-want)/math.Abs(want) > relTol {
		t.Errorf("%s = %.2f, want %.2f (±%.0f%%)", name, got, want, relTol*100)
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		term Term
		want string
	}{
		{C(pattern.Contig(), pattern.Strided(64)), "1C64"},
		{C(pattern.Indexed(), pattern.Contig()), "wC1"},
		{S(pattern.Strided(64)), "64S0"},
		{F(pattern.Contig()), "1F0"},
		{R(pattern.Strided(64)), "0R64"},
		{D(pattern.Indexed()), "0Dw"},
	}
	for _, c := range cases {
		if got := c.term.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestParseTermRoundTrip(t *testing.T) {
	for _, key := range []string{"1C1", "1C64", "64C1", "wC1", "1Cw", "wCw", "1S0", "64S0", "wS0", "1F0", "0R1", "0R64", "0Rw", "0D1", "0D64", "0Dw"} {
		term, err := ParseTerm(key)
		if err != nil {
			t.Fatalf("ParseTerm(%q): %v", key, err)
		}
		if term.Key() != key {
			t.Errorf("round trip %q -> %q", key, term.Key())
		}
	}
}

func TestParseTermRejects(t *testing.T) {
	for _, key := range []string{"", "C", "1C", "C1", "1X1", "0C1", "1C0", "1S1", "0S0", "1R1", "0F0", "xCy"} {
		if _, err := ParseTerm(key); err == nil {
			t.Errorf("ParseTerm(%q) should fail", key)
		}
	}
}

func TestNewTermShapeValidation(t *testing.T) {
	// Send must write the port.
	if _, err := NewTerm(OpLoadSend, pattern.Contig(), pattern.Contig()); err == nil {
		t.Error("S with memory write should fail")
	}
	// Receive must read the port.
	if _, err := NewTerm(OpRecvDeposit, pattern.Contig(), pattern.Contig()); err == nil {
		t.Error("D with memory read should fail")
	}
	// Copy must not touch the port.
	if _, err := NewTerm(OpCopy, pattern.Fixed(), pattern.Contig()); err == nil {
		t.Error("C with port read should fail")
	}
}

func TestExprString(t *testing.T) {
	e := MustParse("wC1 o (1S0 || Nd || 0D1) o 1Cw")
	want := "wC1 o (1S0 || Nd || 0D1) o 1Cw"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestParseReparse(t *testing.T) {
	for _, text := range []string{
		"1C1",
		"Nd",
		"1S0 || Nd || 0D1",
		"1C1 o 1C1",
		"wC1 o (1S0 || Nadp || 0Dw) o wCw",
		"(1C1 o 1C1) || Nd",
	} {
		e, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", text, e.String(), err)
		}
		if e.String() != e2.String() {
			t.Errorf("not a fixed point: %q -> %q", e.String(), e2.String())
		}
	}
}

func TestParseUnicodeOperators(t *testing.T) {
	a := MustParse("1C1 ∘ (1S0 ‖ Nd ‖ 0D1)")
	b := MustParse("1C1 o (1S0 || Nd || 0D1)")
	if a.String() != b.String() {
		t.Errorf("unicode parse %q != ascii parse %q", a, b)
	}
}

func TestParseErrors(t *testing.T) {
	for _, text := range []string{
		"", "o", "||", "1C1 o", "o 1C1", "(1C1", "1C1)", "1C1 1C1", "Nx",
		"1C1 o )", "((1C1)", "1C64 o 1C1 o", // trailing operator
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestCheckPatternMatching(t *testing.T) {
	// Write pattern of step i must match read pattern of step i+1.
	if _, err := Parse("1C64 o 1C1"); err == nil {
		t.Error("1C64 o 1C1 should fail the matching rule (64 != 1)")
	}
	if _, err := Parse("1C64 o 64C1"); err != nil {
		t.Errorf("1C64 o 64C1 should pass: %v", err)
	}
	// Port handoffs always match.
	if _, err := Parse("wC1 o (1S0 || Nd || 0D64) o 64C1"); err != nil {
		t.Errorf("port handoff should pass: %v", err)
	}
}

func TestBoundary(t *testing.T) {
	e := MustParse("wC1 o (1S0 || Nd || 0D64) o 64C1")
	r, w := Boundary(e)
	if r != pattern.Indexed() || w != pattern.Contig() {
		t.Errorf("boundary = %v,%v, want w,1", r, w)
	}
	r, w = Boundary(MustParse("64S0 || Nadp || 0Dw"))
	if r != pattern.Strided(64) || w != pattern.Indexed() {
		t.Errorf("par boundary = %v,%v, want 64,w", r, w)
	}
}

func TestEvaluateRules(t *testing.T) {
	rt := NewRateTable("test")
	rt.SetKey("1C1", 100)
	rt.SetKey("1S0", 50)
	rt.SetKey("0D1", 200)
	rt.SetNet(netsim.DataOnly, 1, 150)

	// Parallel = min.
	got, err := Evaluate(MustParse("1S0 || Nd || 0D1"), rt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("par = %v, want 50", got)
	}
	// Sequential = harmonic sum: 1/(1/100+1/100) = 50.
	got, err = Evaluate(MustParse("1C1 o 1C1"), rt, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("seq = %v, want 50", got)
	}
}

func TestEvaluateMissingRate(t *testing.T) {
	rt := NewRateTable("empty")
	if _, err := Evaluate(MustParse("1C1"), rt, 1); err == nil {
		t.Error("missing rate should error")
	}
	if _, err := Evaluate(MustParse("Nd"), rt, 1); err == nil {
		t.Error("missing net rate should error")
	}
}

func TestStrideInterpolation(t *testing.T) {
	rt := PaperT3D()
	// Exact points return as-is.
	r, err := rt.Rate(C(pattern.Contig(), pattern.Strided(64)))
	if err != nil || r != 67.9 {
		t.Fatalf("1C64 = %v,%v", r, err)
	}
	// Strides beyond 64 use the stride-64 value (paper §4.2).
	r, err = rt.Rate(C(pattern.Contig(), pattern.Strided(1024)))
	if err != nil || r != 67.9 {
		t.Errorf("1C1024 = %v,%v, want 67.9", r, err)
	}
	// Intermediate strides interpolate monotonically between endpoints.
	r16, err := rt.Rate(C(pattern.Contig(), pattern.Strided(16)))
	if err != nil {
		t.Fatal(err)
	}
	if r16 <= 67.9 || r16 >= 93 {
		t.Errorf("1C16 = %v, want between 67.9 and 93", r16)
	}
	// Send-side stride interpolation.
	s16, err := rt.Rate(S(pattern.Strided(16)))
	if err != nil {
		t.Fatal(err)
	}
	if s16 <= 35 || s16 >= 126 {
		t.Errorf("16S0 = %v, want between 35 and 126", s16)
	}
}

func TestStrideInterpolationMonotone(t *testing.T) {
	rt := PaperT3D()
	prev := math.Inf(1)
	for _, s := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		r, err := rt.Rate(C(pattern.Contig(), pattern.Strided(s)))
		if err != nil {
			t.Fatal(err)
		}
		if r > prev+1e-9 {
			t.Errorf("1C%d = %v not monotone (prev %v)", s, r, prev)
		}
		prev = r
	}
}

func TestNetRateScaling(t *testing.T) {
	rt := PaperT3D()
	// Exact points.
	r, err := rt.NetRate(netsim.DataOnly, 2)
	if err != nil || r != 69 {
		t.Fatalf("Nd@2 = %v,%v", r, err)
	}
	// Off-grid congestion scales ~1/c from the nearest point.
	r8, err := rt.NetRate(netsim.DataOnly, 8)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "Nd@8", r8, 35.0/2, 0.05)
	// Congestion below 1 clamps.
	r1, _ := rt.NetRate(netsim.DataOnly, 0.5)
	if r1 != 142 {
		t.Errorf("Nd@0.5 = %v, want 142", r1)
	}
}

func TestRateTableKeys(t *testing.T) {
	rt := PaperT3D()
	ks := rt.Keys()
	if len(ks) != 11 {
		t.Errorf("T3D paper table has %d keys, want 11", len(ks))
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Error("keys not sorted")
		}
	}
}

// The heart of the reproduction: the model, fed with the paper's Tables
// 1-4, must reproduce the paper's published model estimates.

func TestPaperT3DBufferPackingEstimates(t *testing.T) {
	rt := PaperT3D()
	caps := CapsOf(machine.T3D())
	cases := []struct {
		x, y pattern.Spec
		want float64
		tol  float64
	}{
		{pattern.Contig(), pattern.Contig(), 27.9, 0.05},
		{pattern.Contig(), pattern.Strided(64), 25.2, 0.05},
		{pattern.Strided(64), pattern.Contig(), 17.1, 0.10},
		{pattern.Indexed(), pattern.Indexed(), 14.2, 0.05},
	}
	for _, c := range cases {
		e := BufferPacking(caps, c.x, c.y)
		got, err := Evaluate(e, rt, 2)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		almost(t, "T3D packed "+c.x.String()+"Q"+c.y.String(), got, c.want, c.tol)
	}
}

func TestPaperT3DChainedEstimates(t *testing.T) {
	rt := PaperT3D()
	caps := CapsOf(machine.T3D())
	cases := []struct {
		x, y pattern.Spec
		want float64
		tol  float64
	}{
		{pattern.Contig(), pattern.Contig(), 70, 0.05},
		{pattern.Contig(), pattern.Strided(64), 38, 0.05},
		{pattern.Indexed(), pattern.Indexed(), 32, 0.05},
	}
	for _, c := range cases {
		e, err := Chained(caps, c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(e, rt, 2)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		almost(t, "T3D chained "+c.x.String()+"Q'"+c.y.String(), got, c.want, c.tol)
	}
}

func TestPaperParagonBufferPackingEstimates(t *testing.T) {
	rt := PaperParagon()
	caps := CapsOf(machine.Paragon()) // sequential §5.1.3 formula by default
	cases := []struct {
		x, y pattern.Spec
		want float64
		tol  float64
	}{
		// Paper's 1Q1=20.7 is inconsistent with its own formula
		// (1F0||Nd||0D1 with copies gives 24.6); allow a wide band.
		{pattern.Contig(), pattern.Contig(), 20.7, 0.25},
		{pattern.Contig(), pattern.Strided(64), 16.1, 0.05},
		{pattern.Strided(16), pattern.Strided(64), 14.9, 0.15},
		{pattern.Indexed(), pattern.Indexed(), 16.2, 0.05},
	}
	for _, c := range cases {
		e := BufferPacking(caps, c.x, c.y)
		got, err := Evaluate(e, rt, 2)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		almost(t, "Paragon packed "+c.x.String()+"Q"+c.y.String(), got, c.want, c.tol)
	}
}

func TestPaperParagonChainedEstimates(t *testing.T) {
	rt := PaperParagon()
	caps := CapsOf(machine.Paragon())
	cases := []struct {
		x, y pattern.Spec
		want float64
		tol  float64
	}{
		{pattern.Contig(), pattern.Contig(), 52, 0.05},
		{pattern.Contig(), pattern.Strided(64), 38, 0.05},
		{pattern.Strided(16), pattern.Strided(64), 38, 0.05},
		{pattern.Indexed(), pattern.Indexed(), 36, 0.05},
	}
	for _, c := range cases {
		e, err := Chained(caps, c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(e, rt, 2)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		almost(t, "Paragon chained "+c.x.String()+"Q'"+c.y.String(), got, c.want, c.tol)
	}
}

// Section 3.4.1: |1Q1024| estimated at 25.0 MB/s on the T3D.
func TestPaperSection341(t *testing.T) {
	rt := PaperT3D()
	caps := CapsOf(machine.T3D())
	e := BufferPacking(caps, pattern.Contig(), pattern.Strided(1024))
	got, err := Evaluate(e, rt, 2)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "|1Q1024|", got, 25.0, 0.05)
}

// Chained beats buffer packing for every non-contiguous pattern in the
// paper's tables, on both machines — the headline claim.
func TestChainedBeatsPackingForNonContiguous(t *testing.T) {
	for _, m := range machine.Profiles() {
		rt := PaperTables()[m.Name]
		caps := CapsOf(m)
		for _, pat := range [][2]pattern.Spec{
			{pattern.Contig(), pattern.Strided(64)},
			{pattern.Strided(64), pattern.Contig()},
			{pattern.Indexed(), pattern.Indexed()},
		} {
			packedE := BufferPacking(caps, pat[0], pat[1])
			packed, err := Evaluate(packedE, rt, 2)
			if err != nil {
				t.Fatal(err)
			}
			chainedE, err := Chained(caps, pat[0], pat[1])
			if err != nil {
				t.Fatal(err)
			}
			chained, err := Evaluate(chainedE, rt, 2)
			if err != nil {
				t.Fatal(err)
			}
			if chained <= packed {
				t.Errorf("%s %sQ%s: chained %.1f <= packed %.1f", m.Name, pat[0], pat[1], chained, packed)
			}
		}
	}
}

func TestChainedRequiresEngine(t *testing.T) {
	caps := Caps{} // no engines at all
	if _, err := Chained(caps, pattern.Contig(), pattern.Strided(64)); err == nil {
		t.Error("chained without engines should fail")
	}
	// Contiguous-only deposit cannot chain strided scatters without a
	// co-processor.
	caps = Caps{DepositContig: true}
	if _, err := Chained(caps, pattern.Contig(), pattern.Strided(64)); err == nil {
		t.Error("contiguous-only deposit cannot scatter strided")
	}
	if _, err := Chained(caps, pattern.Contig(), pattern.Contig()); err != nil {
		t.Errorf("contiguous chain should work: %v", err)
	}
}

// Property: parallel composition is commutative and Seq throughput never
// exceeds the slowest part.
func TestCompositionProperties(t *testing.T) {
	rt := NewRateTable("prop")
	rt.SetKey("1C1", 100)
	rt.SetKey("1S0", 60)
	rt.SetNet(netsim.DataOnly, 1, 150)

	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw%200) + 1
		b := float64(bRaw%200) + 1
		rt.SetKey("1C1", a)
		rt.SetKey("1S0", b)
		par1, err1 := Evaluate(MustParse("1C1 || 1S0"), rt, 1)
		par2, err2 := Evaluate(MustParse("1S0 || 1C1"), rt, 1)
		seq, err3 := Evaluate(MustParse("1C1 o 1C1"), rt, 1) // uses a twice
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return par1 == par2 && par1 == math.Min(a, b) && seq <= a/2+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding a sequential stage never increases throughput.
func TestSeqMonotoneProperty(t *testing.T) {
	rt := NewRateTable("prop")
	f := func(rates []uint8) bool {
		if len(rates) == 0 {
			return true
		}
		inv := 0.0
		for _, r := range rates {
			inv += 1 / (float64(r%100) + 1)
		}
		parts := make([]Expr, 0, len(rates))
		for i, r := range rates {
			key := Term{Op: OpCopy, Read: pattern.Contig(), Write: pattern.Contig()}
			_ = key
			_ = i
			rt.SetKey("1C1", float64(r%100)+1)
			parts = append(parts, Basic{C(pattern.Contig(), pattern.Contig())})
		}
		// All parts share the same (last-set) rate; check harmonic law.
		got, err := Evaluate(NewSeq(parts...), rt, 1)
		if err != nil {
			return false
		}
		last := float64(rates[len(rates)-1]%100) + 1
		want := last / float64(len(rates))
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestOpsExprShapes(t *testing.T) {
	caps := CapsOf(machine.T3D())
	e := BufferPacking(caps, pattern.Indexed(), pattern.Indexed())
	if !strings.Contains(e.String(), "wC1") || !strings.Contains(e.String(), "1Cw") {
		t.Errorf("T3D packed shape wrong: %s", e)
	}
	ce, err := Chained(caps, pattern.Indexed(), pattern.Indexed())
	if err != nil {
		t.Fatal(err)
	}
	if ce.String() != "wS0 || Nadp || 0Dw" {
		t.Errorf("T3D chained shape = %s", ce)
	}
	// Contiguous chain uses data-only framing.
	ce, err = Chained(caps, pattern.Contig(), pattern.Contig())
	if err != nil {
		t.Fatal(err)
	}
	if ce.String() != "1S0 || Nd || 0D1" {
		t.Errorf("T3D contiguous chained shape = %s", ce)
	}
	// Paragon chained receives with the co-processor (R, not D).
	pcaps := CapsOf(machine.Paragon())
	ce, err = Chained(pcaps, pattern.Indexed(), pattern.Indexed())
	if err != nil {
		t.Fatal(err)
	}
	if ce.String() != "wS0 || Nadp || 0Rw" {
		t.Errorf("Paragon chained shape = %s", ce)
	}
}

func TestCapsOf(t *testing.T) {
	t3d := CapsOf(machine.T3D())
	if !t3d.DepositAny || t3d.FetchContig || t3d.RecvStore {
		t.Errorf("T3D caps wrong: %+v", t3d)
	}
	par := CapsOf(machine.Paragon())
	if par.DepositAny || !par.DepositContig || !par.FetchContig || !par.RecvStore || par.OverlapUnpack {
		t.Errorf("Paragon caps wrong: %+v", par)
	}
}

func TestBlockStridedRateLookup(t *testing.T) {
	rt := NewRateTable("blocks")
	rt.SetKey("1C1", 100)
	rt.SetKey("1C64", 50)
	rt.SetKey("1C64x2", 70)
	// Exact block-strided entry.
	r, err := rt.Rate(C(pattern.Contig(), pattern.StridedBlock(64, 2)))
	if err != nil || r != 70 {
		t.Fatalf("1C64x2 = %v, %v", r, err)
	}
	// Beyond the largest same-block stride: clamp to it.
	r, err = rt.Rate(C(pattern.Contig(), pattern.StridedBlock(1024, 2)))
	if err != nil || r != 70 {
		t.Errorf("1C1024x2 = %v, %v, want 70", r, err)
	}
	// Intermediate same-block strides interpolate between contiguous
	// (stride == block endpoint) and the stride-64 block entry.
	r, err = rt.Rate(C(pattern.Contig(), pattern.StridedBlock(16, 2)))
	if err != nil {
		t.Fatal(err)
	}
	if r <= 70 || r >= 100 {
		t.Errorf("1C16x2 = %v, want between 70 and 100", r)
	}
}

func TestBlockStridedFallbackToPlainCurve(t *testing.T) {
	// Without block-strided measurements, a 2-word-block stride 64
	// behaves like the plain strided curve at stride 32.
	rt := PaperT3D()
	blocked, err := rt.Rate(C(pattern.Contig(), pattern.StridedBlock(64, 2)))
	if err != nil {
		t.Fatal(err)
	}
	plain32, err := rt.Rate(C(pattern.Contig(), pattern.Strided(32)))
	if err != nil {
		t.Fatal(err)
	}
	if blocked != plain32 {
		t.Errorf("fallback = %v, want plain stride-32 rate %v", blocked, plain32)
	}
}

func TestBottleneck(t *testing.T) {
	rt := PaperT3D()
	// Chained strided: Nadp@2 = 38 limits (vs 1S0=126, 0D64=52).
	e := MustParse("1S0 || Nadp || 0D64")
	leaf, rate, err := Bottleneck(e, rt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.String() != "Nadp" {
		t.Errorf("bottleneck = %v, want Nadp", leaf)
	}
	if rate != 38 {
		t.Errorf("bottleneck rate = %v, want 38", rate)
	}
	// Packed indexed: the gather copy wC1 = 32.9 is the worst stage.
	e = MustParse("wC1 o (1S0 || Nd || 0D1) o 1Cw")
	leaf, rate, err = Bottleneck(e, rt, 2)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.String() != "wC1" || rate != 32.9 {
		t.Errorf("bottleneck = %v @ %v, want wC1 @ 32.9", leaf, rate)
	}
}

func TestBottleneckErrors(t *testing.T) {
	rt := NewRateTable("empty")
	if _, _, err := Bottleneck(MustParse("1C1"), rt, 1); err == nil {
		t.Error("missing rate should fail")
	}
	if _, _, err := Bottleneck(Seq{}, rt, 1); err == nil {
		t.Error("empty seq should fail")
	}
	if _, _, err := Bottleneck(Par{}, rt, 1); err == nil {
		t.Error("empty par should fail")
	}
}
