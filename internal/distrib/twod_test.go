package distrib

import (
	"testing"

	"ctcomm/internal/pattern"
)

func TestDist2DValidation(t *testing.T) {
	r, _ := NewBlock(8, 2)
	c, _ := NewBlock(8, 2)
	if _, err := NewDist2D(8, 8, r, c); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDist2D(4, 8, r, c); err == nil {
		t.Error("row mismatch should fail")
	}
	if _, err := NewDist2D(8, 4, r, c); err == nil {
		t.Error("col mismatch should fail")
	}
	if _, err := NewDist2D(0, 8, r, c); err == nil {
		t.Error("empty array should fail")
	}
}

func TestDist2DOwnership(t *testing.T) {
	// 4x4 array over a 2x2 grid of BLOCK x BLOCK.
	r, _ := NewBlock(4, 2)
	c, _ := NewBlock(4, 2)
	d, err := NewDist2D(4, 4, r, c)
	if err != nil {
		t.Fatal(err)
	}
	if d.Procs() != 4 {
		t.Fatalf("procs = %d", d.Procs())
	}
	// Element (0,0) on proc 0; (0,3) on proc 1; (3,0) on proc 2; (3,3) on 3.
	cases := []struct{ i, j, want int }{
		{0, 0, 0}, {0, 3, 1}, {3, 0, 2}, {3, 3, 3}, {1, 2, 1}, {2, 1, 2},
	}
	for _, cse := range cases {
		if got := d.OwnerOf(cse.i, cse.j); got != cse.want {
			t.Errorf("owner(%d,%d) = %d, want %d", cse.i, cse.j, got, cse.want)
		}
	}
	lr, lc := d.LocalShape(0)
	if lr != 2 || lc != 2 {
		t.Errorf("local shape = %dx%d, want 2x2", lr, lc)
	}
	// Local offsets are row-major within the 2x2 tile.
	if off := d.LocalOffset(1, 1); off != 3 {
		t.Errorf("offset(1,1) = %d, want 3", off)
	}
}

func TestRowBlockColBlockShapes(t *testing.T) {
	rb, err := RowBlock(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Procs() != 4 {
		t.Fatalf("procs = %d", rb.Procs())
	}
	lr, lc := rb.LocalShape(0)
	if lr != 2 || lc != 8 {
		t.Errorf("row-block tile = %dx%d, want 2x8", lr, lc)
	}
	cb, err := ColBlock(8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	lr, lc = cb.LocalShape(0)
	if lr != 8 || lc != 2 {
		t.Errorf("col-block tile = %dx%d, want 8x2", lr, lc)
	}
}

func TestTransposePlanPatterns(t *testing.T) {
	// Figure 9: every processor pair exchanges one (n/p)^2 patch. The
	// 1Qn orientation reads contiguous row runs and scatters stride-n
	// single words; the nQ1 orientation mirrors it.
	const n, p = 16, 4
	plan, err := TransposePlan(n, p, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != p*(p-1) {
		t.Fatalf("plan transfers = %d, want %d", len(plan), p*(p-1))
	}
	patch := (n / p) * (n / p)
	for _, tr := range plan {
		if tr.Words() != patch {
			t.Errorf("%d->%d: %d words, want %d", tr.From, tr.To, tr.Words(), patch)
		}
		if tr.Src != pattern.StridedBlock(n, n/p) {
			t.Errorf("%d->%d: src pattern %v, want %dx%d runs", tr.From, tr.To, tr.Src, n, n/p)
		}
		if tr.Dst != pattern.Strided(n) {
			t.Errorf("%d->%d: dst pattern %v, want stride %d", tr.From, tr.To, tr.Dst, n)
		}
	}
	// The flipped orientation swaps the pattern roles.
	flipped, err := TransposePlan(n, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if flipped[0].Src != pattern.Strided(n) || flipped[0].Dst != pattern.StridedBlock(n, n/p) {
		t.Errorf("nQ1 orientation patterns wrong: %v -> %v", flipped[0].Src, flipped[0].Dst)
	}
}

func TestTransposePlanMovesDataCorrectly(t *testing.T) {
	// Execute the plan on real data: the result must be the transpose.
	const n, p = 8, 2
	layout, err := RowBlock(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	// Build a's tiles.
	tiles := make([][]float64, p)
	for q := range tiles {
		lr, lc := layout.LocalShape(q)
		tiles[q] = make([]float64, lr*lc)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			tiles[layout.OwnerOf(i, j)][layout.LocalOffset(i, j)] = float64(i*n + j)
		}
	}
	out := make([][]float64, p)
	for q := range out {
		lr, lc := layout.LocalShape(q)
		out[q] = make([]float64, lr*lc)
	}
	// Local (diagonal) patches transpose in place.
	for q := 0; q < p; q++ {
		lo := q * (n / p)
		for i := lo; i < lo+n/p; i++ {
			for j := lo; j < lo+n/p; j++ {
				out[q][layout.LocalOffset(i, j)] = tiles[q][layout.LocalOffset(j, i)]
			}
		}
	}
	plan, err := TransposePlan(n, p, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range plan {
		srcOff, dstOff := tr.SrcOffsets(), tr.DstOffsets()
		for k := range srcOff {
			out[tr.To][dstOff[k]] = tiles[tr.From][srcOff[k]]
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			got := out[layout.OwnerOf(i, j)][layout.LocalOffset(i, j)]
			if got != float64(j*n+i) {
				t.Fatalf("b(%d,%d) = %v, want %v", i, j, got, float64(j*n+i))
			}
		}
	}
}

func TestTransposePlanValidation(t *testing.T) {
	if _, err := TransposePlan(10, 4, false); err == nil {
		t.Error("non-dividing processor count should fail")
	}
}

// flatten converts a 2D distribution into the equivalent 1D indexed
// distribution over the row-major element index: the oracle that lets
// the 1D planner check Plan2D.
func flatten(d Dist2D) (Distribution, error) {
	owner := make([]int, d.Rows*d.Cols)
	for i := 0; i < d.Rows; i++ {
		ri := d.Row.OwnerOf(i) * d.Col.P
		for j := 0; j < d.Cols; j++ {
			owner[i*d.Cols+j] = ri + d.Col.OwnerOf(j)
		}
	}
	return NewIndexed(owner, d.Procs())
}

func TestPlan2DMovesDataCorrectly(t *testing.T) {
	// Functional check via the flattened 1D machinery: the 2D plan must
	// agree with the plan of the flattened indexed distributions.
	const n, p = 12, 4
	src, err := RowBlock(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := ColBlock(n, n, p)
	if err != nil {
		t.Fatal(err)
	}
	plan2d, err := Plan2D(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	fsrc, err := flatten(src)
	if err != nil {
		t.Fatal(err)
	}
	fdst, err := flatten(dst)
	if err != nil {
		t.Fatal(err)
	}
	plan1d, err := Plan(fsrc, fdst)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2d) != len(plan1d) {
		t.Fatalf("plan sizes differ: %d vs %d", len(plan2d), len(plan1d))
	}
	for k := range plan2d {
		if plan2d[k].From != plan1d[k].From || plan2d[k].To != plan1d[k].To ||
			plan2d[k].Words() != plan1d[k].Words() {
			t.Fatalf("transfer %d differs: %v vs %v", k, plan2d[k], plan1d[k])
		}
	}
}

func TestPlan2DValidation(t *testing.T) {
	a, _ := RowBlock(8, 8, 4)
	b, _ := ColBlock(4, 4, 4)
	if _, err := Plan2D(a, b); err == nil {
		t.Error("shape mismatch should fail")
	}
	c, _ := ColBlock(8, 8, 2)
	if _, err := Plan2D(a, c); err == nil {
		t.Error("processor mismatch should fail")
	}
}

func TestFlattenBijection(t *testing.T) {
	r, _ := NewCyclic(6, 2)
	c, _ := NewBlock(4, 2)
	d, err := NewDist2D(6, 4, r, c)
	if err != nil {
		t.Fatal(err)
	}
	f, err := flatten(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			if f.OwnerOf(i*4+j) != d.OwnerOf(i, j) {
				t.Fatalf("flatten owner mismatch at (%d,%d)", i, j)
			}
		}
	}
	total := 0
	for p := 0; p < d.Procs(); p++ {
		lr, lc := d.LocalShape(p)
		total += lr * lc
	}
	if total != 24 {
		t.Errorf("local shapes cover %d elements, want 24", total)
	}
}
