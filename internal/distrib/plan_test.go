package distrib

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// samePlan reports how got differs from the reference plan want: in
// transfer order, endpoints, word counts, patterns or the offsets the
// symbolic sides regenerate.
func samePlan(got []Transfer, want []refTransfer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d transfers, reference has %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.From != w.From || g.To != w.To:
			return fmt.Errorf("transfer %d is %d->%d, reference %d->%d", i, g.From, g.To, w.From, w.To)
		case g.Words() != len(w.SrcOff):
			return fmt.Errorf("%d->%d: %d words, reference %d", g.From, g.To, g.Words(), len(w.SrcOff))
		case g.Src != w.Src || g.Dst != w.Dst:
			return fmt.Errorf("%d->%d: %vQ%v, reference %vQ%v", g.From, g.To, g.Src, g.Dst, w.Src, w.Dst)
		case !slices.Equal(g.SrcOffsets(), w.SrcOff):
			return fmt.Errorf("%d->%d (%v): source offsets %v, reference %v", g.From, g.To, g.Src, g.SrcOffsets(), w.SrcOff)
		case !slices.Equal(g.DstOffsets(), w.DstOff):
			return fmt.Errorf("%d->%d (%v): destination offsets %v, reference %v", g.From, g.To, g.Dst, g.DstOffsets(), w.DstOff)
		}
	}
	return nil
}

// randomDist draws a BLOCK, CYCLIC, CYCLIC(b) or INDEXED distribution
// of n elements over p processors. Indexed owners are either uniform
// or a block-cyclic deal under a random processor relabeling, so
// indexed layouts produce regular sides as well as irregular ones.
func randomDist(r *rand.Rand, n, p int) Distribution {
	var d Distribution
	var err error
	switch r.Intn(4) {
	case 0:
		d, err = NewBlock(n, p)
	case 1:
		d, err = NewCyclic(n, p)
	case 2:
		d, err = NewBlockCyclic(n, p, 1+r.Intn(9))
	default:
		owner := make([]int, n)
		if r.Intn(2) == 0 {
			for i := range owner {
				owner[i] = r.Intn(p)
			}
		} else {
			b, relabel := 1+r.Intn(5), r.Perm(p)
			for i := range owner {
				owner[i] = relabel[(i/b)%p]
			}
		}
		d, err = NewIndexed(owner, p)
	}
	if err != nil {
		panic(err)
	}
	return d
}

// randomDist2D draws a 2D layout of rows x cols over pr x pc processors.
func randomDist2D(r *rand.Rand, rows, cols, pr, pc int) Dist2D {
	d, err := NewDist2D(rows, cols, randomDist(r, rows, pr), randomDist(r, cols, pc))
	if err != nil {
		panic(err)
	}
	return d
}

// checkCase plans one random case with the production planner and the
// reference and compares them. mode picks a 1D redistribution, a 2D
// remap or a transpose; size bounds the array.
func checkCase(r *rand.Rand, mode, size int) error {
	switch mode % 3 {
	case 0:
		n, p := 1+r.Intn(size), 1+r.Intn(9)
		src, dst := randomDist(r, n, p), randomDist(r, n, p)
		got, err := Plan(src, dst)
		if err != nil {
			return err
		}
		want, err := refPlan(src, dst)
		if err != nil {
			return err
		}
		if err := samePlan(got, want); err != nil {
			return fmt.Errorf("Plan(%v, %v): %v", src, dst, err)
		}
	case 1:
		rows, cols := 1+r.Intn(max(1, size/8)), 1+r.Intn(max(1, size/8))
		pr, pc := 1+r.Intn(4), 1+r.Intn(4)
		src := randomDist2D(r, rows, cols, pr, pc)
		dst := randomDist2D(r, rows, cols, pc, pr) // same processor count, other grid
		if r.Intn(2) == 0 {
			dst = randomDist2D(r, rows, cols, pr, pc)
		}
		got, err := Plan2D(src, dst)
		if err != nil {
			return err
		}
		want, err := refPlan2D(src, dst)
		if err != nil {
			return err
		}
		if err := samePlan(got, want); err != nil {
			return fmt.Errorf("Plan2D(%v/%v, %v/%v): %v", src.Row, src.Col, dst.Row, dst.Col, err)
		}
	default:
		procs := 1 + r.Intn(6)
		n := procs * (1 + r.Intn(max(1, size/(8*procs))))
		strided := r.Intn(2) == 0
		got, err := TransposePlan(n, procs, strided)
		if err != nil {
			return err
		}
		want, err := refTransposePlan(n, procs, strided)
		if err != nil {
			return err
		}
		if err := samePlan(got, want); err != nil {
			return fmt.Errorf("TransposePlan(%d, %d, %v): %v", n, procs, strided, err)
		}
	}
	return nil
}

func TestPlanMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 600; i++ {
		if err := checkCase(r, i, 400); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	// Paper-sized regular redistributions, one each.
	for _, c := range [][2]Distribution{
		{mustBlock(t, 1<<14, 64), mustCyclic(t, 1<<14, 64)},
		{mustCyclic(t, 1<<14, 64), mustBC(t, 1<<14, 64, 16)},
		{mustBC(t, 1<<14+7, 12, 5), mustBlock(t, 1<<14+7, 12)},
	} {
		got, err := Plan(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		want, err := refPlan(c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		if err := samePlan(got, want); err != nil {
			t.Errorf("Plan(%v, %v): %v", c[0], c[1], err)
		}
	}
}

// FuzzPlanMatchesReference: for any random case the production
// planners equal the materializing reference transfer for transfer.
func FuzzPlanMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 6; seed++ {
		f.Add(seed, uint8(seed), uint16(64+seed*50))
	}
	f.Fuzz(func(t *testing.T, seed int64, mode uint8, size uint16) {
		r := rand.New(rand.NewSource(seed))
		if err := checkCase(r, int(mode), 1+int(size%1024)); err != nil {
			t.Fatal(err)
		}
	})
}

// classifierCases returns offset sequences that exercise every branch
// of the classifier: dense runs, block-strided laws, deviations at
// every position, zero and negative steps, strides straddling 1<<30
// and wrapping arithmetic.
func classifierCases(r *rand.Rand) [][]int64 {
	law := func(first int64, n, block int, stride int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = first + int64(i/block)*stride + int64(i%block)
		}
		return out
	}
	cases := [][]int64{
		{0}, {5, 5}, {5, 4}, {0, 1}, {0, 2}, {0, 1, 3}, {0, 1, 2, 4, 5, 6},
		{0, 1 << 30}, {0, 1<<30 + 1}, {0, 1, 1 << 30, 1<<30 + 1},
		{-1 << 63, 1<<63 - 1}, {1<<63 - 1, -1 << 63}, {1<<63 - 2, 1<<63 - 1, -1 << 63},
	}
	for i := 0; i < 300; i++ {
		n, block := 1+r.Intn(40), 1+r.Intn(5)
		stride := int64(block + r.Intn(12))
		if r.Intn(8) == 0 {
			stride = 1<<30 - 2 + int64(r.Intn(4))
		}
		first := int64(r.Intn(100)) - 50
		if r.Intn(10) == 0 {
			first = 1<<63 - 1 - int64(r.Intn(64)) // runs that wrap past the largest offset
		}
		offs := law(first, n, block, stride)
		switch r.Intn(4) {
		case 0: // follow the law
		case 1: // one deviation anywhere
			offs[r.Intn(n)] += int64(r.Intn(7)) - 3
		case 2: // zero or negative steps
			k := r.Intn(n)
			offs[k] = offs[max(0, k-1)] - int64(r.Intn(2))
		default: // arbitrary values
			for k := range offs {
				offs[k] = int64(r.Intn(64)) - 8
			}
		}
		cases = append(cases, offs)
	}
	return cases
}

// checkClassifier requires the online classifier to agree with the
// slice reference on offs and, whatever it classifies, to regenerate
// exactly offs from its state.
func checkClassifier(offs []int64) error {
	want, _ := refClassify(offs)
	var c classifier
	for _, o := range offs {
		c.add(o)
	}
	if got := c.spec(); got != want {
		return fmt.Errorf("classifier(%v) = %v, reference %v", offs, got, want)
	}
	s := side{first: c.first, idx: c.idx}
	if got := s.offsets(c.spec(), len(offs)); !slices.Equal(got, offs) {
		return fmt.Errorf("classifier(%v) as %v regenerates %v", offs, c.spec(), got)
	}
	return nil
}

func TestClassifierMatchesReference(t *testing.T) {
	for _, offs := range classifierCases(rand.New(rand.NewSource(2))) {
		if err := checkClassifier(offs); err != nil {
			t.Error(err)
		}
	}
}

// TestPlanAllocsIndependentOfN: the planner keeps no per-element
// state, so for a fixed processor count and the same communicating
// pairs it allocates the same at 1,024 and at 65,536 elements.
func TestPlanAllocsIndependentOfN(t *testing.T) {
	const p = 8
	for _, c := range []struct {
		name     string
		src, dst func(n int) Distribution
	}{
		{"BLOCK->CYCLIC", func(n int) Distribution { return mustBlock(t, n, p) }, func(n int) Distribution { return mustCyclic(t, n, p) }},
		{"CYCLIC->BLOCK", func(n int) Distribution { return mustCyclic(t, n, p) }, func(n int) Distribution { return mustBlock(t, n, p) }},
		{"CYCLIC(4)->CYCLIC(16)", func(n int) Distribution { return mustBC(t, n, p, 4) }, func(n int) Distribution { return mustBC(t, n, p, 16) }},
	} {
		var allocs, pairs [2]float64
		for i, n := range []int{1024, 65536} {
			src, dst := c.src(n), c.dst(n)
			plan, err := Plan(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range plan {
				if tr.src.idx != nil || tr.dst.idx != nil {
					t.Fatalf("%s n=%d: %d->%d has an indexed side", c.name, n, tr.From, tr.To)
				}
			}
			pairs[i] = float64(len(plan))
			allocs[i] = testing.AllocsPerRun(5, func() { Plan(src, dst) })
		}
		if pairs[0] != pairs[1] {
			t.Fatalf("%s: %v pairs at n=1024, %v at n=65536", c.name, pairs[0], pairs[1])
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %v allocations at n=1024, %v at n=65536", c.name, allocs[0], allocs[1])
		}
	}
}
