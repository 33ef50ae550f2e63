package distrib

import (
	"cmp"
	"fmt"
	"slices"

	"ctcomm/internal/pattern"
)

// Transfer is one node-to-node data movement of a redistribution plan,
// the compiler's input to the communication operation xQy, held as the
// compiler of §2.1 knows it: the word count and, per side, the pattern
// and first local offset. Only an indexed (ω) side keeps its offsets;
// SrcOffsets and DstOffsets regenerate the others.
type Transfer struct {
	From, To int
	// Src and Dst are the classified access patterns of the two sides.
	Src, Dst pattern.Spec
	words    int
	src, dst side
}

// side is one end of a transfer: its first local offset, every offset
// if indexed, and for TransposePlan's column walk (cols > 0) the words
// per column at the pattern's stride, each column one word further.
type side struct {
	first int64
	cols  int
	idx   []int64
}

// at returns the side's k-th local offset under pattern spec.
func (s side) at(spec pattern.Spec, k int) int64 {
	switch {
	case s.idx != nil:
		return s.idx[k]
	case s.cols > 0:
		return s.first + int64(k%s.cols)*int64(spec.Stride()) + int64(k/s.cols)
	}
	b := spec.Block()
	return s.first + int64(k/b)*int64(spec.Stride()) + int64(k%b)
}

func (s side) offsets(spec pattern.Spec, words int) []int64 {
	out := make([]int64, words)
	for k := range out {
		out[k] = s.at(spec, k)
	}
	return out
}

// Words returns the number of transferred elements.
func (t Transfer) Words() int { return t.words }

// SrcOffsets returns the source-side local offsets, in transfer order.
func (t Transfer) SrcOffsets() []int64 { return t.src.offsets(t.Src, t.words) }

// DstOffsets returns the destination-side local offsets, in transfer order.
func (t Transfer) DstOffsets() []int64 { return t.dst.offsets(t.Dst, t.words) }

// Classify determines the symbolic access pattern of a local offset
// sequence: contiguous, constant-strided, or indexed (paper §2.2). A
// single element classifies as contiguous; an empty sequence is invalid.
func Classify(offsets []int64) (pattern.Spec, error) {
	if len(offsets) == 0 {
		return pattern.Spec{}, fmt.Errorf("distrib: empty offset sequence")
	}
	var c classifier
	for _, o := range offsets {
		c.add(o)
	}
	return c.spec(), nil
}

// classifier is Classify as one online pass with O(1) state: the count,
// the first offset and the block-strided law so far (a leading dense
// run of block words, then runs at stride). A stride that does not
// clear the run or exceeds 1<<30, or an offset off the law, makes the
// side indexed: the prefix is materialized from the law.
type classifier struct {
	n      int
	first  int64
	block  int // 0 while the leading run is still open
	stride int64
	idx    []int64
}

func (c *classifier) add(o int64) {
	i := c.n
	c.n++
	switch {
	case c.idx != nil:
		c.idx = append(c.idx, o)
	case i == 0:
		c.first = o
	case c.block == 0:
		if o == c.first+int64(i) {
			return // the leading run goes on
		}
		// The run ends and o starts the next; a first step below one
		// word makes a stride of at most the block.
		c.block, c.stride = i, o-c.first
		if c.stride <= int64(c.block) || c.stride > 1<<30 {
			c.deviate(i, o)
		}
	case o != c.law(i):
		c.deviate(i, o)
	}
}

// law returns the k-th offset of the law, once the block is fixed.
func (c *classifier) law(k int) int64 {
	return c.first + int64(k/c.block)*c.stride + int64(k%c.block)
}

// deviate makes the side indexed at its i-th offset, o.
func (c *classifier) deviate(i int, o int64) {
	c.idx = make([]int64, i, 2*(i+1))
	for k := range c.idx {
		c.idx[k] = c.law(k)
	}
	c.idx = append(c.idx, o)
}

func (c *classifier) spec() pattern.Spec {
	switch {
	case c.idx != nil:
		return pattern.Indexed()
	case c.block == 0:
		return pattern.Contig()
	}
	return pattern.StridedBlock(int(c.stride), c.block)
}

// pairs accumulates a plan: two classifiers per processor pair that
// exchanges data, so its state grows with those pairs, never with the
// elements or with p×p.
type pairs struct {
	procs int
	at    map[int]int // from*procs + to -> index into acc
	acc   []pairAcc
}

type pairAcc struct {
	from, to int
	src, dst classifier
}

// newPairs sizes for every pair, at most one per element and 4096.
func newPairs(procs, elems int) *pairs {
	hint := min(elems, procs*(procs-1), 4096)
	return &pairs{procs: procs, at: make(map[int]int, hint), acc: make([]pairAcc, 0, hint)}
}

// add records one element moving from processor from, at local offset
// srcOff, to processor to, at dstOff.
func (ps *pairs) add(from, to int, srcOff, dstOff int64) {
	k := from*ps.procs + to
	i, ok := ps.at[k]
	if !ok {
		i = len(ps.acc)
		ps.at[k] = i
		ps.acc = append(ps.acc, pairAcc{from: from, to: to})
	}
	ps.acc[i].src.add(srcOff)
	ps.acc[i].dst.add(dstOff)
}

// plan returns the accumulated transfers ordered (From, To).
func (ps *pairs) plan() []Transfer {
	plan := make([]Transfer, len(ps.acc))
	for i, a := range ps.acc {
		plan[i] = Transfer{From: a.from, To: a.to, Src: a.src.spec(), Dst: a.dst.spec(), words: a.src.n,
			src: side{first: a.src.first, idx: a.src.idx}, dst: side{first: a.dst.first, idx: a.dst.idx}}
	}
	slices.SortFunc(plan, func(a, b Transfer) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return plan
}

// Plan computes the full redistribution plan from src to dst: one
// Transfer per processor pair that exchanges at least one element.
// Elements already on the right processor do not communicate ("the
// compiler generates synchronization separately; we focus on the data
// transfers", §2.1). Transfers are ordered (From, To).
func Plan(src, dst Distribution) ([]Transfer, error) {
	if !src.Compatible(dst) {
		return nil, fmt.Errorf("distrib: incompatible distributions %v vs %v", src, dst)
	}
	srcAt, dstAt := localOffsets(src), localOffsets(dst)
	ps := newPairs(src.P, src.N)
	for i := 0; i < src.N; i++ {
		from, srcOff := srcAt(i)
		to, dstOff := dstAt(i)
		if from != to {
			ps.add(from, to, srcOff, dstOff)
		}
	}
	return ps.plan(), nil
}

// localOffsets yields the owner and local offset of global indices asked
// in order, each in O(1): IndexedKind counts per processor.
func localOffsets(d Distribution) func(i int) (int, int64) {
	if d.Kind != IndexedKind {
		return func(i int) (int, int64) { return d.OwnerOf(i), int64(d.LocalOffset(i)) }
	}
	seen := make([]int64, d.P)
	return func(i int) (int, int64) {
		o := d.Owner[i]
		seen[o]++
		return o, seen[o] - 1
	}
}

// Localize splits a global array into per-processor local arrays under
// the distribution.
func Localize(d Distribution, global []float64) ([][]float64, error) {
	if len(global) != d.N {
		return nil, fmt.Errorf("distrib: array length %d != %d", len(global), d.N)
	}
	local := make([][]float64, d.P)
	for p := 0; p < d.P; p++ {
		local[p] = make([]float64, d.LocalSize(p))
	}
	for i, v := range global {
		local[d.OwnerOf(i)][d.LocalOffset(i)] = v
	}
	return local, nil
}

// Globalize reassembles the global array from per-processor locals.
func Globalize(d Distribution, local [][]float64) ([]float64, error) {
	if len(local) != d.P {
		return nil, fmt.Errorf("distrib: %d locals for %d processors", len(local), d.P)
	}
	global := make([]float64, d.N)
	for i := range global {
		p := d.OwnerOf(i)
		off := d.LocalOffset(i)
		if off >= len(local[p]) {
			return nil, fmt.Errorf("distrib: local offset %d out of range on %d", off, p)
		}
		global[i] = local[p][off]
	}
	return global, nil
}

// Apply executes a redistribution plan functionally: it moves the
// values from the src-layout locals into dst-layout locals, including
// the elements that stay put. This is the correctness counterpart of
// the timing in Execute.
func Apply(src, dst Distribution, plan []Transfer, locals [][]float64) ([][]float64, error) {
	if !src.Compatible(dst) {
		return nil, fmt.Errorf("distrib: incompatible distributions")
	}
	out := make([][]float64, dst.P)
	for p := 0; p < dst.P; p++ {
		out[p] = make([]float64, dst.LocalSize(p))
	}
	// Elements that do not move between processors.
	for i := 0; i < src.N; i++ {
		from := src.OwnerOf(i)
		to := dst.OwnerOf(i)
		if from == to {
			out[to][dst.LocalOffset(i)] = locals[from][src.LocalOffset(i)]
		}
	}
	// Planned transfers, at the offsets their patterns regenerate.
	for _, t := range plan {
		for k := 0; k < t.words; k++ {
			out[t.To][t.dst.at(t.Dst, k)] = locals[t.From][t.src.at(t.Src, k)]
		}
	}
	return out, nil
}
