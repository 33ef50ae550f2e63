package distrib

import (
	"fmt"

	"ctcomm/internal/pattern"
)

// Two-dimensional distributions: HPF distributes each array dimension
// independently onto one dimension of a processor grid (paper §2.1
// discusses blocks, slices and intersections of slices, citing the
// authors' array-statement compilation work [15]). A Dist2D combines a
// row and a column distribution over a PR x PC processor grid; the
// element (i, j) of an R x C array lives on processor
// (rowOwner(i), colOwner(j)) with a row-major local layout.
type Dist2D struct {
	Rows, Cols int
	// Row distributes the row index over PR grid rows; Col distributes
	// the column index over PC grid columns. Use a single-processor
	// distribution ("*" in HPF) to collapse a dimension.
	Row, Col Distribution
}

// NewDist2D validates and builds a 2D distribution.
func NewDist2D(rows, cols int, row, col Distribution) (Dist2D, error) {
	if rows < 1 || cols < 1 {
		return Dist2D{}, fmt.Errorf("distrib: invalid array %dx%d", rows, cols)
	}
	if row.N != rows {
		return Dist2D{}, fmt.Errorf("distrib: row distribution covers %d, array has %d rows", row.N, rows)
	}
	if col.N != cols {
		return Dist2D{}, fmt.Errorf("distrib: column distribution covers %d, array has %d cols", col.N, cols)
	}
	return Dist2D{Rows: rows, Cols: cols, Row: row, Col: col}, nil
}

// Procs returns the processor-grid size PR x PC.
func (d Dist2D) Procs() int { return d.Row.P * d.Col.P }

// OwnerOf returns the flat processor id owning element (i, j):
// grid-row-major, i.e. owner = rowOwner*PC + colOwner.
func (d Dist2D) OwnerOf(i, j int) int {
	return d.Row.OwnerOf(i)*d.Col.P + d.Col.OwnerOf(j)
}

// LocalShape returns the local tile dimensions on processor p.
func (d Dist2D) LocalShape(p int) (rows, cols int) {
	return d.Row.LocalSize(p / d.Col.P), d.Col.LocalSize(p % d.Col.P)
}

// LocalOffset returns the row-major offset of element (i, j) within its
// owner's local tile.
func (d Dist2D) LocalOffset(i, j int) int {
	_, lc := d.LocalShape(d.OwnerOf(i, j))
	return d.Row.LocalOffset(i)*lc + d.Col.LocalOffset(j)
}

// Plan2D computes the redistribution plan between two 2D layouts of the
// same array over the same processor count. The transfers carry local
// offsets in each side's row-major tile layout, with patterns
// classified as usual — a (BLOCK, *) to (*, BLOCK) remap, the paper's
// transpose redistribution (Figure 9), classifies as contiguous reads
// and strided writes.
func Plan2D(src, dst Dist2D) ([]Transfer, error) {
	if src.Rows != dst.Rows || src.Cols != dst.Cols {
		return nil, fmt.Errorf("distrib: arrays differ: %dx%d vs %dx%d",
			src.Rows, src.Cols, dst.Rows, dst.Cols)
	}
	if src.Procs() != dst.Procs() {
		return nil, fmt.Errorf("distrib: processor counts differ: %d vs %d",
			src.Procs(), dst.Procs())
	}
	ps := newPairs(src.Procs(), src.Rows*src.Cols)
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			if from, to := src.OwnerOf(i, j), dst.OwnerOf(i, j); from != to {
				ps.add(from, to, int64(src.LocalOffset(i, j)), int64(dst.LocalOffset(i, j)))
			}
		}
	}
	return ps.plan(), nil
}

// RowBlock returns the (BLOCK, *) layout: whole rows, block-distributed.
func RowBlock(rows, cols, procs int) (Dist2D, error) { return blockLayout(rows, cols, procs, 1) }

// ColBlock returns the (*, BLOCK) layout: whole columns, block-distributed.
func ColBlock(rows, cols, procs int) (Dist2D, error) { return blockLayout(rows, cols, 1, procs) }

// blockLayout block-distributes rows over pr, columns over pc processors.
func blockLayout(rows, cols, pr, pc int) (Dist2D, error) {
	r, err := NewBlock(rows, pr)
	if err != nil {
		return Dist2D{}, err
	}
	c, err := NewBlock(cols, pc)
	if err != nil {
		return Dist2D{}, err
	}
	return NewDist2D(rows, cols, r, c)
}

// TransposePlan returns the plan of the paper's Figure 9 transpose:
// b[i][j] = a[j][i] with both n x n arrays row-block distributed over
// procs processors. Square patches move between every processor pair;
// with source-major traversal (stridedLoads false) each transfer reads
// blocks of contiguous words and scatters single words at stride n —
// the 1Qn orientation — while dst-major traversal (stridedLoads true)
// yields nQ1 (§5.2's compiler choice).
func TransposePlan(n, procs int, stridedLoads bool) ([]Transfer, error) {
	if _, err := RowBlock(n, n, procs); err != nil {
		return nil, err
	}
	if n%procs != 0 {
		return nil, fmt.Errorf("distrib: %d processors do not divide n=%d", procs, n)
	}
	blk := n / procs
	// Patch from -> to is b(i, j) = a(j, i), i in to's rows, j in from's:
	// it starts at a's local offset to*blk and b's from*blk.
	plan := make([]Transfer, 0, procs*(procs-1))
	for from := 0; from < procs; from++ {
		for to := 0; to < procs; to++ {
			if from == to {
				continue
			}
			t := Transfer{From: from, To: to, words: blk * blk,
				src: side{first: int64(to * blk)}, dst: side{first: int64(from * blk)}}
			if stridedLoads { // dst-major: read a columns, write b rows
				t.Src, t.Dst, t.src.cols = pattern.Strided(n), pattern.StridedBlock(n, blk), blk
			} else { // source-major: read a rows, scatter b columns
				t.Src, t.Dst, t.dst.cols = pattern.StridedBlock(n, blk), pattern.Strided(n), blk
			}
			plan = append(plan, t)
		}
	}
	return plan, nil
}
