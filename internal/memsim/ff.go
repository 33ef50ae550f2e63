package memsim

import (
	"math"

	"ctcomm/internal/pattern"
)

// Steady-state fast-forward.
//
// Periodic address streams (contiguous and non-overlapping strided
// patterns) drive the memory system into a steady state: once the cache
// phase (position within the cache-wrap), the DRAM row phase (position
// within the page) and the 128-bit quad phase all realign, the machine
// performs exactly the same work per period, shifted in time and address
// space. Because all internal time is exact integer femtoseconds
// (memory.go), the cost of each such period is bit-for-bit identical, so
// the simulator can stop walking words: it verifies recurrence over
// three consecutive period boundaries and then extrapolates all
// remaining whole periods by pure arithmetic, resuming exact simulation
// for the tail. Results are identical — not approximately equal — to the
// word-by-word run; the differential tests assert this field by field.
//
// The structural period is P rounds where one round consumes one payload
// word from each active stream: the least number of rounds after which
// every stream advances its addresses by a whole multiple of
// L = lcm(CacheBytes, PageBytes, 16). Advancing by a multiple of
// CacheBytes preserves the cache set/line phase, a multiple of PageBytes
// preserves the DRAM row phase, and a multiple of 16 preserves the quad
// phase of PFQ load pairing. Recurrence of the dynamic state (queue
// occupancies, stream-buffer arming, time-relative completion times,
// cache contents) is then verified empirically on snapshots rather than
// assumed.
//
// Exactness argument for the jump itself:
//   - Counters and address-valued registers (open page, stream-buffer
//     line, write-merge line, last pipelined address, the LRU stamp
//     counter, each stream's position) are checked to advance by a
//     constant delta per period over three boundaries and are
//     extrapolated linearly.
//   - Pending completion times (DRAM free time, stream-buffer ready
//     time, WBQ/PFQ entries) are checked to be constant relative to the
//     current processor time and are translated by the jumped duration.
//   - The cache is checked too, because under write-back it is not
//     passive: a dirty victim's write-back claims the DRAM row its
//     address lies in, so which line is evicted, and whether it is
//     dirty, shapes the timing. Each set is compared in LRU order
//     (victim choice depends on stamp order, never on the way a line
//     sits in). A line touched during this run phase belongs to the
//     stream whose footprint holds it; its tag is compared relative to
//     that stream's position and its stamp relative to the stamp
//     counter. A line untouched this phase is compared absolutely, and
//     may not lie at or ahead of a stream's position inside its
//     footprint, where a later access could hit it. When the three
//     boundaries agree, the jump moves every touched line by n times its
//     stream's per-period delta and its stamp by n times the counter's,
//     which keeps the set index (deltas are multiples of CacheBytes) and
//     the LRU order; untouched lines stay put, older than every touched
//     line, exactly as n simulated periods would leave them. The cache
//     after the run is thus the word-by-word cache up to the order of
//     ways within a set, which nothing observes.
const (
	// ffMaxPeriod bounds the structural period in rounds; patterns whose
	// phases realign too slowly are not worth extrapolating.
	ffMaxPeriod = 1 << 20
	// ffMinPeriods is the minimum number of whole periods a run must
	// contain before fast-forward is considered (warm-up + 3 verification
	// snapshots + at least one period to skip).
	ffMinPeriods = 5
	// ffMaxProbe gives up after this many period boundaries without
	// recurrence (e.g. a conflict-missing pattern that never settles).
	ffMaxProbe = 12
)

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm64(a, b int64) int64 {
	return a / gcd64(a, b) * b
}

// ffEligible reports whether one stream has a fast-forwardable shape and
// returns its structural period in rounds (payload words).
func ffEligible(st *pattern.Stream, L int64, lineBytes int) (rounds int64, ok bool) {
	if st.Base()%int64(lineBytes) != 0 {
		return 0, false
	}
	switch st.Spec().Kind() {
	case pattern.KindContig:
		return L / pattern.WordBytes, true
	case pattern.KindStrided:
		stride, block := int64(st.Spec().Stride()), int64(st.Spec().Block())
		if stride < block || block < 1 {
			// Overlapping runs revisit addresses; not monotone.
			return 0, false
		}
		// One run of block words advances the address by stride words.
		runs := L / gcd64(stride*pattern.WordBytes, L)
		return runs * block, true
	default:
		return 0, false
	}
}

// StreamPeriod returns the structural steady-state period of the
// (loads, stores) pair in rounds (payload words per stream), or 0 when
// the shape has no exact recurring state under this configuration. It
// is the shape-eligibility half of the fast-forward plan — everything
// except the minimum-length gate — exported so the analytic sweep layer
// (internal/xfer law fitting) can reuse the exact same applicability
// rule: a pair is law-eligible at SOME length iff StreamPeriod > 0.
// The disjointness check uses the given streams' footprints, so callers
// extrapolating to longer runs must re-check overlap at the target
// length.
func (m *Memory) StreamPeriod(loads, stores *pattern.Stream) int {
	if m.cfg.FastForward != FastForwardAuto {
		return 0
	}
	L := lcm64(lcm64(int64(m.cfg.CacheBytes), int64(m.cfg.PageBytes)), 16)
	period := int64(1)
	words := 0
	for _, st := range [2]*pattern.Stream{loads, stores} {
		if st == nil {
			continue
		}
		r, ok := ffEligible(st, L, m.cfg.LineBytes)
		if !ok {
			return 0
		}
		if words == 0 {
			words = st.Words()
		} else if st.Words() != words {
			// Unequal lengths change the round structure mid-run.
			return 0
		}
		period = lcm64(period, r)
		if period > ffMaxPeriod {
			return 0
		}
	}
	// Streams must not interfere through the cache or DRAM rows in an
	// aperiodic way: require disjoint address regions.
	if loads != nil && stores != nil {
		lb, le := loads.Base(), loads.Base()+loads.Footprint()
		sb, se := stores.Base(), stores.Base()+stores.Footprint()
		if lb < se && sb < le {
			return 0
		}
	}
	return int(period)
}

// ffPlan decides whether the (loads, stores) pair is eligible for
// fast-forward and returns the combined period in rounds, or 0.
func (m *Memory) ffPlan(loads, stores *pattern.Stream) int {
	period := m.StreamPeriod(loads, stores)
	if period == 0 {
		return 0
	}
	words := 0
	if loads != nil {
		words = loads.Words()
	} else if stores != nil {
		words = stores.Words()
	}
	if words < ffMinPeriods*period {
		return 0
	}
	return period
}

// ffLin indexes the linearly-advancing snapshot fields.
const (
	ffLinT = iota
	ffLinOpenPage
	ffLinBusy
	ffLinRowHits
	ffLinRowMiss
	ffLinCacheHits
	ffLinCacheMisses
	ffLinCacheEvict
	ffLinStamp
	ffLinSBLine
	ffLinLastMiss
	ffLinWBLine
	ffLinPFQAddr
	ffLinLoads
	ffLinStores
	ffLinPayload
	ffLinPos   // + stream index: line of the stream's next address
	ffLinCount = ffLinPos + 2
)

// ffSnap is one period-boundary snapshot of the machine state, split
// into fields that must be equal across boundaries, fields that must be
// equal relative to the processor time, and fields that must advance by
// a constant delta. The cache itself is kept apart (ffState.cache);
// the snapshot records only whether it recurred.
type ffSnap struct {
	sbValid bool
	wbOpen  bool
	wbWords int
	wbqLen  int
	pfqLen  int
	// cacheOK reports that the cache had a recurring form at this
	// boundary (ffCacheState); cacheSame that it equals the form at
	// the previous boundary.
	cacheOK   bool
	cacheSame bool

	freeRel    int64 // dram.freeAt - t
	sbReadyRel int64 // sbReady - t, 0 unless sbValid
	wbqRel     []int64
	pfqRel     []int64

	lin [ffLinCount]int64
}

// ffLine is one cache way at a period boundary in the form that recurs
// (see the exactness argument above).
type ffLine struct {
	class int8 // ffEmpty, ffForeign, or ffStream + stream index
	dirty bool
	tag   int64 // relative to the stream's position line for stream lines
	stamp int64 // relative to the stamp counter for stream lines
}

const (
	ffEmpty int8 = iota
	ffForeign
	ffStream
)

// newer reports whether way a was used more recently than way b. Every
// line touched this phase is newer than every untouched one.
func (a *ffLine) newer(b *ffLine) bool {
	if (a.class == ffForeign) != (b.class == ffForeign) {
		return b.class == ffForeign
	}
	return a.stamp > b.stamp
}

// ffState is the probe's working memory: three rotating snapshots,
// the cache's recurring form at the last boundary, and the set being
// compared with it. Its sizes come from the configuration (queue
// capacities, cache geometry). It is built on a memory's first probe —
// memories that never probe, such as the shape checks of xfer.PeriodOf
// and engine-only nodes, never pay for it — and reused by every later
// run, so probing allocates nothing.
type ffState struct {
	snaps [3]ffSnap
	cache []ffLine
	set   []ffLine
}

func (m *Memory) ffBuffers() *ffState {
	if m.ff != nil {
		return m.ff
	}
	sc := &ffState{}
	nw, np := len(m.wbq.buf), len(m.pfq.buf)
	q := make([]int64, 3*(nw+np))
	for i := range sc.snaps {
		sc.snaps[i].wbqRel, q = q[:nw], q[nw:]
		sc.snaps[i].pfqRel, q = q[:np], q[np:]
	}
	lines := len(m.cache.tags)
	l := make([]ffLine, lines+m.cache.ways)
	sc.cache, sc.set = l[:lines], l[lines:]
	m.ff = sc
	return sc
}

// ffProbe is one run phase's fast-forward attempt: its streams, the line
// span of each stream's footprint, the stamp counter when the phase
// began (lines stamped later were touched by the phase) and the
// snapshots taken so far.
type ffProbe struct {
	period     int
	streams    [2]*pattern.Stream
	first      [2]int64
	last       [2]int64
	phaseStamp int64
	snaps      [3]*ffSnap
	taken      int
}

func (m *Memory) newProbe(loads, stores *pattern.Stream, period int) ffProbe {
	sc := m.ffBuffers()
	p := ffProbe{
		period:     period,
		streams:    [2]*pattern.Stream{loads, stores},
		phaseStamp: m.cache.stamp,
		snaps:      [3]*ffSnap{&sc.snaps[0], &sc.snaps[1], &sc.snaps[2]},
	}
	for k, st := range p.streams {
		if st != nil {
			p.first[k] = m.cache.line(st.Base())
			p.last[k] = m.cache.line(st.Base() + st.Footprint() - 1)
		}
	}
	return p
}

// owner returns the index of the stream whose footprint holds line, or
// -1. Footprints are disjoint (StreamPeriod) and start line-aligned, so
// at most one does.
func (p *ffProbe) owner(line int64) int {
	for k, st := range p.streams {
		if st != nil && p.first[k] <= line && line <= p.last[k] {
			return k
		}
	}
	return -1
}

// ffSnapshot records the state at a period boundary and reports whether
// the last three boundaries show exact steady-state recurrence.
func (m *Memory) ffSnapshot(p *ffProbe, t int64, res *Result) bool {
	p.snaps[0], p.snaps[1], p.snaps[2] = p.snaps[1], p.snaps[2], p.snaps[0]
	s := p.snaps[2]
	s.sbValid = m.sbValid
	s.wbOpen = m.wbOpen
	s.wbWords = m.wbWords
	s.wbqLen = m.wbq.len()
	s.pfqLen = m.pfq.len()
	s.freeRel = m.dram.freeAt - t
	s.sbReadyRel = 0
	if m.sbValid {
		s.sbReadyRel = m.sbReady - t
	}
	// A queued completion time at or before t can never delay the
	// processor again (pops and the final drain only wait for entries
	// later than the current time). Under write-back all such entries
	// compare equal, so the completed PFQ entries a contiguous load
	// stream leaves behind at its start do not block recurrence. The
	// write-around and write-through configurations of the paper's
	// machines keep the exact comparison: relaxing it there would newly
	// certify the Paragon's contiguous-load runs and change what their
	// law fits cost, which belongs with the rework of law-fit coverage
	// and the benchmark rounds it needs.
	floor := int64(math.MinInt64)
	if m.cfg.Policy == WriteBack {
		floor = 0
	}
	for i := 0; i < s.wbqLen; i++ {
		s.wbqRel[i] = max(m.wbq.at(i)-t, floor)
	}
	for i := 0; i < s.pfqLen; i++ {
		s.pfqRel[i] = max(m.pfq.at(i)-t, floor)
	}
	s.lin = [ffLinCount]int64{}
	s.lin[ffLinT] = t
	s.lin[ffLinOpenPage] = m.dram.openPage
	s.lin[ffLinBusy] = m.dram.busy
	s.lin[ffLinRowHits] = m.dram.rowHits
	s.lin[ffLinRowMiss] = m.dram.rowMiss
	s.lin[ffLinCacheHits] = m.cache.hits
	s.lin[ffLinCacheMisses] = m.cache.misses
	s.lin[ffLinCacheEvict] = m.cache.evictions
	s.lin[ffLinStamp] = m.cache.stamp
	if m.sbValid {
		s.lin[ffLinSBLine] = m.sbLine
	}
	s.lin[ffLinLastMiss] = m.lastMissLine
	if m.wbOpen {
		s.lin[ffLinWBLine] = m.wbLine
	}
	s.lin[ffLinPFQAddr] = m.pfqLastAddr
	s.lin[ffLinLoads] = res.Loads
	s.lin[ffLinStores] = res.Stores
	s.lin[ffLinPayload] = res.PayloadBytes
	for k, st := range p.streams {
		if st != nil {
			// Boundaries fall before the last round, so a next address
			// exists; eligible streams have no overhead accesses.
			a, _ := st.Peek()
			s.lin[ffLinPos+k] = m.cache.line(a.Addr)
		}
	}

	s.cacheOK, s.cacheSame = m.ffCacheState(p, s, p.taken > 0 && p.snaps[1].cacheOK)
	p.taken++
	return p.taken >= 3 && ffRecurs(p.snaps[0], p.snaps[1], p.snaps[2])
}

// ffCacheState replaces the stored recurring form of the cache
// (ffState.cache) with the current one: one segment of ways per set in
// LRU order, most recent first, empty ways last. With compare set it
// also reports whether the two forms are equal. ok is false when the
// cache has no recurring form: a line touched this phase outside every
// stream footprint, or an untouched line at or ahead of a stream's
// position inside its footprint.
func (m *Memory) ffCacheState(p *ffProbe, s *ffSnap, compare bool) (ok, same bool) {
	c, seg, stored := m.cache, m.ff.set, m.ff.cache
	same = compare
	for base := 0; base < len(c.tags); base += c.ways {
		n := 0
		for i := base; i < base+c.ways; i++ {
			tag := c.tags[i]
			if tag == -1 {
				continue
			}
			e := ffLine{class: ffForeign, dirty: c.dirty[i], tag: tag, stamp: c.lru[i]}
			k := p.owner(tag)
			if e.stamp > p.phaseStamp {
				if k < 0 {
					return false, false
				}
				e.class = ffStream + int8(k)
				e.tag -= s.lin[ffLinPos+k]
				e.stamp -= c.stamp
			} else if k >= 0 && tag >= s.lin[ffLinPos+k] {
				return false, false
			}
			j := n
			for ; j > 0 && e.newer(&seg[j-1]); j-- {
				seg[j] = seg[j-1]
			}
			seg[j] = e
			n++
		}
		for w := 0; w < c.ways; w++ {
			var e ffLine // empty way
			if w < n {
				e = seg[w]
			}
			if stored[base+w] != e {
				stored[base+w] = e
				same = false
			}
		}
	}
	return true, same
}

// ffRecurs reports whether three consecutive period-boundary snapshots
// exhibit exact steady-state recurrence.
func ffRecurs(s0, s1, s2 *ffSnap) bool {
	if !s1.cacheSame || !s2.cacheSame {
		return false
	}
	if s0.sbValid != s1.sbValid || s1.sbValid != s2.sbValid ||
		s0.wbOpen != s1.wbOpen || s1.wbOpen != s2.wbOpen ||
		s0.wbWords != s1.wbWords || s1.wbWords != s2.wbWords ||
		s0.wbqLen != s1.wbqLen || s1.wbqLen != s2.wbqLen ||
		s0.pfqLen != s1.pfqLen || s1.pfqLen != s2.pfqLen {
		return false
	}
	if s0.freeRel != s1.freeRel || s1.freeRel != s2.freeRel ||
		s0.sbReadyRel != s1.sbReadyRel || s1.sbReadyRel != s2.sbReadyRel {
		return false
	}
	for i := 0; i < s2.wbqLen; i++ {
		if s0.wbqRel[i] != s1.wbqRel[i] || s1.wbqRel[i] != s2.wbqRel[i] {
			return false
		}
	}
	for i := 0; i < s2.pfqLen; i++ {
		if s0.pfqRel[i] != s1.pfqRel[i] || s1.pfqRel[i] != s2.pfqRel[i] {
			return false
		}
	}
	for i := 0; i < ffLinCount; i++ {
		if s1.lin[i]-s0.lin[i] != s2.lin[i]-s1.lin[i] {
			return false
		}
	}
	return true
}

// ffJump extrapolates n whole periods from the verified steady state of
// the probe's last two snapshots and returns the new processor time.
// All machine state is advanced exactly as n more simulated periods
// would have advanced it. The run's recurrence certificate is the
// per-period delta of those snapshots; it is issued unless the cache
// holds a line from before the run phase.
func (m *Memory) ffJump(p *ffProbe, n int64, t int64, res *Result) int64 {
	s1, s2 := p.snaps[1], p.snaps[2]
	one := func(i int) int64 { return s2.lin[i] - s1.lin[i] }
	d := func(i int) int64 { return n * one(i) }
	m.cert = Cert{Period: int64(p.period), D: Result{
		PayloadBytes: one(ffLinPayload),
		Loads:        one(ffLinLoads),
		Stores:       one(ffLinStores),
		CacheHits:    one(ffLinCacheHits),
		CacheMisses:  one(ffLinCacheMisses),
		RowHits:      one(ffLinRowHits),
		RowMisses:    one(ffLinRowMiss),
		ElapsedFs:    one(ffLinT),
		DRAMBusyFs:   one(ffLinBusy),
	}}
	dt := d(ffLinT)

	m.dram.freeAt += dt
	m.dram.openPage += d(ffLinOpenPage)
	m.dram.busy += d(ffLinBusy)
	m.dram.rowHits += d(ffLinRowHits)
	m.dram.rowMiss += d(ffLinRowMiss)
	m.cache.hits += d(ffLinCacheHits)
	m.cache.misses += d(ffLinCacheMisses)
	m.cache.evictions += d(ffLinCacheEvict)
	if m.sbValid {
		m.sbLine += d(ffLinSBLine)
		m.sbReady += dt
	}
	m.lastMissLine += d(ffLinLastMiss)
	if m.wbOpen {
		m.wbLine += d(ffLinWBLine)
	}
	m.pfqLastAddr += d(ffLinPFQAddr)
	m.wbq.shift(dt)
	m.pfq.shift(dt)
	res.Loads += d(ffLinLoads)
	res.Stores += d(ffLinStores)
	res.PayloadBytes += d(ffLinPayload)

	c := m.cache
	dStamp := d(ffLinStamp)
	dPos := [2]int64{d(ffLinPos), d(ffLinPos + 1)}
	for i, tag := range c.tags {
		if tag == -1 {
			continue
		}
		if c.lru[i] <= p.phaseStamp {
			m.cert = Cert{}
			continue
		}
		c.tags[i] = tag + dPos[p.owner(tag)]
		c.lru[i] += dStamp
	}
	c.stamp += dStamp

	skip := int(n) * p.period
	for _, st := range p.streams {
		if st != nil {
			st.Skip(skip)
		}
	}
	return t + dt
}
