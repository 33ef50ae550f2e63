package distrib

import (
	"fmt"
	"sort"

	"ctcomm/internal/pattern"
)

// The materializing planner, kept as the differential reference for
// the symbolic one: it records every moved element's source and
// destination offset per processor pair and classifies each whole
// offset slice at the end.

// refTransfer is a reference plan's transfer, offsets explicit.
type refTransfer struct {
	From, To       int
	SrcOff, DstOff []int64
	Src, Dst       pattern.Spec
}

// refClassify is the slice classifier: detect the leading dense run,
// derive the stride from the first offset past it, then verify the
// whole sequence against the block-strided law.
func refClassify(offsets []int64) (pattern.Spec, error) {
	switch len(offsets) {
	case 0:
		return pattern.Spec{}, fmt.Errorf("distrib: empty offset sequence")
	case 1:
		return pattern.Contig(), nil
	}
	if offsets[1]-offsets[0] < 1 {
		return pattern.Indexed(), nil
	}
	block := 1
	for block < len(offsets) && offsets[block]-offsets[block-1] == 1 {
		block++
	}
	if block == len(offsets) {
		return pattern.Contig(), nil
	}
	stride := offsets[block] - offsets[0]
	if stride <= int64(block) || stride > 1<<30 {
		return pattern.Indexed(), nil
	}
	for i := range offsets {
		want := offsets[0] + int64(i/block)*stride + int64(i%block)
		if offsets[i] != want {
			return pattern.Indexed(), nil
		}
	}
	return pattern.StridedBlock(int(stride), block), nil
}

// refCollect groups per-element moves by pair, classifies and sorts.
type refCollect map[[2]int]*refTransfer

func (c refCollect) add(from, to int, srcOff, dstOff int64) {
	t, ok := c[[2]int{from, to}]
	if !ok {
		t = &refTransfer{From: from, To: to}
		c[[2]int{from, to}] = t
	}
	t.SrcOff = append(t.SrcOff, srcOff)
	t.DstOff = append(t.DstOff, dstOff)
}

func (c refCollect) plan() ([]refTransfer, error) {
	plan := make([]refTransfer, 0, len(c))
	for _, t := range c {
		s, err := refClassify(t.SrcOff)
		if err != nil {
			return nil, err
		}
		d, err := refClassify(t.DstOff)
		if err != nil {
			return nil, err
		}
		t.Src, t.Dst = s, d
		plan = append(plan, *t)
	}
	refSort(plan)
	return plan, nil
}

func refSort(plan []refTransfer) {
	sort.Slice(plan, func(i, j int) bool {
		if plan[i].From != plan[j].From {
			return plan[i].From < plan[j].From
		}
		return plan[i].To < plan[j].To
	})
}

// refAllLocalOffsets computes every global index's local offset into
// one n-element array.
func refAllLocalOffsets(d Distribution) []int64 {
	out := make([]int64, d.N)
	if d.Kind == IndexedKind {
		next := make([]int64, d.P)
		for i, o := range d.Owner {
			out[i] = next[o]
			next[o]++
		}
		return out
	}
	for i := 0; i < d.N; i++ {
		out[i] = int64(d.LocalOffset(i))
	}
	return out
}

func refPlan(src, dst Distribution) ([]refTransfer, error) {
	if !src.Compatible(dst) {
		return nil, fmt.Errorf("distrib: incompatible distributions %v vs %v", src, dst)
	}
	c := refCollect{}
	srcOff, dstOff := refAllLocalOffsets(src), refAllLocalOffsets(dst)
	for i := 0; i < src.N; i++ {
		if from, to := src.OwnerOf(i), dst.OwnerOf(i); from != to {
			c.add(from, to, srcOff[i], dstOff[i])
		}
	}
	return c.plan()
}

func refPlan2D(src, dst Dist2D) ([]refTransfer, error) {
	if src.Rows != dst.Rows || src.Cols != dst.Cols || src.Procs() != dst.Procs() {
		return nil, fmt.Errorf("distrib: incompatible 2D layouts")
	}
	c := refCollect{}
	for i := 0; i < src.Rows; i++ {
		for j := 0; j < src.Cols; j++ {
			if from, to := src.OwnerOf(i, j), dst.OwnerOf(i, j); from != to {
				c.add(from, to, int64(src.LocalOffset(i, j)), int64(dst.LocalOffset(i, j)))
			}
		}
	}
	return c.plan()
}

func refTransposePlan(n, procs int, stridedLoads bool) ([]refTransfer, error) {
	src, err := RowBlock(n, n, procs)
	if err != nil {
		return nil, err
	}
	dst := src
	if n%procs != 0 {
		return nil, fmt.Errorf("distrib: %d processors do not divide n=%d", procs, n)
	}
	blk := n / procs
	var plan []refTransfer
	for from := 0; from < procs; from++ {
		for to := 0; to < procs; to++ {
			if from == to {
				continue
			}
			t := refTransfer{From: from, To: to}
			i0, j0 := to*blk, from*blk
			if stridedLoads {
				for i := i0; i < i0+blk; i++ {
					for j := j0; j < j0+blk; j++ {
						t.SrcOff = append(t.SrcOff, int64(src.LocalOffset(j, i)))
						t.DstOff = append(t.DstOff, int64(dst.LocalOffset(i, j)))
					}
				}
				t.Src, t.Dst = pattern.Strided(n), pattern.StridedBlock(n, blk)
			} else {
				for j := j0; j < j0+blk; j++ {
					for i := i0; i < i0+blk; i++ {
						t.SrcOff = append(t.SrcOff, int64(src.LocalOffset(j, i)))
						t.DstOff = append(t.DstOff, int64(dst.LocalOffset(i, j)))
					}
				}
				t.Src, t.Dst = pattern.StridedBlock(n, blk), pattern.Strided(n)
			}
			plan = append(plan, t)
		}
	}
	refSort(plan)
	return plan, nil
}
