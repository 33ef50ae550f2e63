package memsim

import (
	"fmt"
	"math"

	"ctcomm/internal/pattern"
	"ctcomm/internal/sim"
)

// Internal time is kept in integer femtoseconds (1 ns = 1e6 fs). Every
// per-operation cost is rounded to fs once at construction; after that
// all accumulation is exact integer arithmetic, so simulated times are
// shift-invariant: the cost of a steady-state period does not depend on
// how far into the run it occurs. That property is what lets the
// fast-forward layer extrapolate whole periods bit-exactly (see ff.go
// and DESIGN.md §6). Results convert back to float64 nanoseconds only at
// the Result boundary.
const fsPerNs = 1e6

func toFs(ns float64) int64 { return int64(math.Round(ns * fsPerNs)) }

func toNs(fs int64) float64 { return float64(fs) / fsPerNs }

// costs holds the processor-side per-operation costs in femtoseconds,
// precomputed from the Config so the hot path performs no float math.
type costs struct {
	issueLoadFs  int64
	issueStoreFs int64
	streamHitFs  int64
	busHalfFs    int64 // half the processor-to-controller round trip
	pfqOpFs      int64
}

// Result summarizes one simulated access stream.
type Result struct {
	ElapsedNs    float64 // end-to-end time including final write drain
	DRAMBusyNs   float64 // cumulative DRAM bank occupancy
	PayloadBytes int64   // bytes of payload moved (overhead refs excluded)
	Loads        int64
	Stores       int64
	CacheHits    int64
	CacheMisses  int64
	RowHits      int64
	RowMisses    int64

	// ElapsedFs and DRAMBusyFs are the exact integer femtosecond forms
	// of ElapsedNs and DRAMBusyNs. All simulator accounting is integer
	// fs (see the fsPerNs notes above); the float fields are derived
	// from these at the Result boundary, so two Results with equal Fs
	// fields have bit-identical float fields. The analytic sweep layer
	// extrapolates steady-state runs in the Fs domain for that reason.
	ElapsedFs  int64
	DRAMBusyFs int64
	// FastForwarded reports that the run verified steady-state
	// recurrence and extrapolated at least one whole period (ff.go).
	// The affine word-count laws of the analytic sweep path read the
	// run's recurrence certificate (Memory.Cert), not this flag.
	FastForwarded bool
}

// Cert is a recurrence certificate: the proof a fast-forwarded run
// issues that its cost is exactly affine in its period count. The run
// verified that the whole machine state recurs over three period
// boundaries (ff.go) and then jumped; each whole period it jumped over
// adds exactly the per-period deltas below to the Result. So the run
// one period longer — same residue, same streams, a memory in the same
// starting state — returns exactly Next of this run's Result.
//
// A RunStream run issues one (Memory.Cert) only when its single run
// phase (the wordwise schedule) fast-forwarded and the cache then held
// no line from before the run, which a longer run's extra period might
// reach. Engine runs, runs that never jump and two-phase
// InterleaveLoadsFirst runs (a longer run lengthens both phases, and
// the other phase is not certified) issue none. A longer copy must keep
// its two streams disjoint (StreamPeriod), which the caller checks.
type Cert struct {
	// Period is the certified period in rounds, each one payload word
	// per stream; 0 means no certificate.
	Period int64
	// D holds the per-period delta of every integer counter of Result;
	// its float fields and FastForwarded are unused and zero.
	D Result
}

// Next returns r, the Result of the run that issued c, advanced by one
// certified period: every counter plus its delta, the float fields
// re-derived from the fs fields as endRun derives them.
func (c Cert) Next(r Result) Result {
	return counters(r, c.D, func(a, d int64) int64 { return a + d })
}

// MBps returns the payload throughput in MB/s (1 MB = 1e6 bytes), the
// unit used throughout the paper.
func (r Result) MBps() float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return float64(r.PayloadBytes) * 1e3 / r.ElapsedNs
}

// MBps converts a byte count and a duration in ns to MB/s.
func MBps(bytes int64, ns float64) float64 {
	if ns <= 0 {
		return 0
	}
	return float64(bytes) * 1e3 / ns
}

// InterleavePolicy selects how RunStream schedules the two sides of a
// transfer against each other.
type InterleavePolicy int

const (
	// InterleaveWordwise zips the streams payload-word by payload-word,
	// each side's overhead (index) loads immediately before the payload
	// access they serve. This is the unrolled, optimally scheduled
	// load/store loop of the xCy copy.
	InterleaveWordwise InterleavePolicy = iota
	// InterleaveLoadsFirst drains the whole load stream before the store
	// stream (a staged copy through a register/buffer block).
	InterleaveLoadsFirst
)

// Memory is one node's memory system simulator. It is not safe for
// concurrent use; each simulated node owns one Memory.
type Memory struct {
	cfg   Config
	cost  costs
	cache cache
	dram  dram

	// Read-ahead (RDAL) stream-buffer state. Times in fs.
	sbValid      bool
	sbLine       int64
	sbReady      int64
	lastMissLine int64

	// Posted-write queue: the open (merging) entry plus completion times
	// of closed entries still draining.
	wbOpen  bool
	wbLine  int64
	wbWords int
	wbq     ring
	// Pipelined-load queue: completion times of outstanding loads, plus
	// the last pipelined address for 128-bit (quad) load pairing.
	pfq         ring
	pfqLastAddr int64

	// ff is the fast-forward probe's working state, built on the first
	// probe (ff.go) and kept by Reset.
	ff *ffState
	// cert is the last run's recurrence certificate, if it issued one.
	cert Cert
	// streams are the read and write stream headers runs on m reuse.
	streams [2]pattern.Stream
}

// Streams returns the memory's reusable read and write stream headers,
// kept across Reset and the pool so a caller builds the streams of a
// run on m without allocating. They never outlive a run.
func (m *Memory) Streams() (r, w *pattern.Stream) { return &m.streams[0], &m.streams[1] }

// geometry is what fixes the sizes of a Memory's buffers: its cache
// lines and ways and its two queue capacities. Memories of one geometry
// differ only in what configure re-applies, so the pool reuses them
// across configurations.
type geometry struct{ lines, ways, wbq, pfq int }

func geometryOf(cfg *Config) geometry {
	return geometry{cfg.CacheBytes / cfg.LineBytes, cfg.Ways, cfg.WBQEntries + 2, cfg.PFQDepth + 1}
}

// newMemory allocates the buffers of geometry g; configure must follow
// before use.
func newMemory(g geometry) *Memory {
	m := &Memory{wbq: newRing(g.wbq), pfq: newRing(g.pfq)}
	m.cache.alloc(g.lines)
	return m
}

// New validates cfg and returns a fresh memory system.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newMemory(geometryOf(&cfg))
	m.configure(cfg)
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Memory {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// pool holds idle memories by geometry for Acquire.
var pool = sim.NewPool[geometry, *Memory]()

// Acquire validates cfg and returns a memory in exactly the state
// New(cfg) returns, reusing an idle memory of cfg's geometry when the
// pool holds one: cfg — its timings, policies and Stats — is re-applied
// on every acquire, so results and Stats attribution are those of a
// fresh memory. A caller that runs one transfer and drops the memory
// acquires it and hands it back with Release; a memory that outlives
// one run (machine.Node) is built with New.
func Acquire(cfg Config) (*Memory, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := geometryOf(&cfg)
	m, ok := pool.Get(g)
	if !ok {
		m = newMemory(g)
	}
	m.configure(cfg)
	return m, nil
}

// Release hands m back to Acquire's pool. The caller must not use m
// afterwards.
func (m *Memory) Release() {
	m.cfg.Stats = nil               // an idle memory keeps no caller's Stats alive
	m.streams = [2]pattern.Stream{} // nor an indexed run's permutation
	pool.Put(geometryOf(&m.cfg), m)
}

// configure applies cfg, which must be valid and of m's geometry, and
// resets m: afterwards m is in exactly the state New(cfg) returns.
func (m *Memory) configure(cfg Config) {
	m.cfg = cfg
	m.cost = costs{
		issueLoadFs:  toFs(cfg.IssueLoadCy * cfg.ClockNs),
		issueStoreFs: toFs(cfg.IssueStoreCy * cfg.ClockNs),
		streamHitFs:  toFs(cfg.StreamHitCy * cfg.ClockNs),
		busHalfFs:    toFs(cfg.BusOverheadNs / 2),
		pfqOpFs:      toFs(cfg.PFQOpNs),
	}
	m.cache.configure(&m.cfg)
	m.dram.configure(&m.cfg)
	m.Reset()
}

// Cert returns the recurrence certificate of the memory's last run, or
// the zero Cert (Period 0) when that run issued none.
func (m *Memory) Cert() Cert { return m.cert }

// Reset restores, in place and without allocating, exactly the state
// New returns for the memory's configuration: an empty cache with
// zeroed stamps and counters, an idle DRAM bank with no open page, an
// unarmed read-ahead buffer, empty write and load queues, time zero
// and no certificate. Only the fast-forward buffers survive (their
// contents never outlive a run).
func (m *Memory) Reset() {
	m.cache.reset()
	m.dram.reset()
	m.sbValid, m.sbLine, m.sbReady = false, 0, 0
	m.lastMissLine = -1 << 40
	m.wbOpen, m.wbLine, m.wbWords = false, 0, 0
	m.wbq.reset()
	m.pfq.reset()
	m.pfqLastAddr = -1 << 40
	m.cert = Cert{}
}

// runBase snapshots the cumulative counters at the start of a run so the
// Result can report per-run deltas.
type runBase struct {
	rowHits, rowMiss int64
	hits, misses     int64
}

func (m *Memory) beginRun() runBase {
	m.dram.freeAt = 0 // time is per-run; state (open page) carries over
	m.cert = Cert{}
	m.wbq.clear()
	m.pfq.clear()
	return runBase{
		rowHits: m.dram.rowHits, rowMiss: m.dram.rowMiss,
		hits: m.cache.hits, misses: m.cache.misses,
	}
}

func (m *Memory) endRun(t int64, base runBase, res *Result) Result {
	t = m.flush(t)
	res.ElapsedFs = t
	res.DRAMBusyFs = m.dram.busy
	res.ElapsedNs = toNs(t)
	res.DRAMBusyNs = toNs(m.dram.busy)
	res.CacheHits = m.cache.hits - base.hits
	res.CacheMisses = m.cache.misses - base.misses
	res.RowHits = m.dram.rowHits - base.rowHits
	res.RowMisses = m.dram.rowMiss - base.rowMiss
	m.dram.busy = 0
	m.cfg.Stats.RecordAccesses(res.Loads+res.Stores, res.ElapsedNs)
	return *res
}

// Run executes a materialized access stream on the processor and returns
// timing. Time starts at zero for each Run; DRAM page and cache state
// carry over between runs so warm-up effects can be studied explicitly.
// Run is the slice-based adapter over the same engine RunStream drives;
// the streaming API is the hot path.
func (m *Memory) Run(accesses []pattern.Access) Result {
	base := m.beginRun()
	var res Result
	var t int64
	for _, a := range accesses {
		if a.Write {
			t = m.store(t, a.Addr)
			res.Stores++
		} else {
			t = m.load(t, a.Addr)
			res.Loads++
		}
		if !a.Overhead {
			res.PayloadBytes += pattern.WordBytes
		}
	}
	return m.endRun(t, base, &res)
}

// RunStream executes a transfer by pulling addresses from the given
// streams (either may be nil for a single-sided transfer) without
// materializing them. The loads stream is issued as processor loads, the
// stores stream as processor stores; overhead accesses of either stream
// are always loads (index-array reads). The result is identical to
// running the equivalent interleaved []pattern.Access slice through Run.
//
// For periodic patterns RunStream additionally detects steady-state
// recurrence and fast-forwards whole periods analytically (see ff.go);
// Config.FastForward gates this. Both paths produce bit-identical
// Results.
func (m *Memory) RunStream(loads, stores *pattern.Stream, policy InterleavePolicy) Result {
	if loads != nil {
		loads.Reset()
	}
	if stores != nil {
		stores.Reset()
	}
	base := m.beginRun()
	var res Result
	var t int64
	if policy == InterleaveLoadsFirst {
		t = m.runStreams(loads, nil, t, &res)
		t = m.runStreams(nil, stores, t, &res)
		m.cert = Cert{} // two phases: see Cert
	} else {
		t = m.runStreams(loads, stores, t, &res)
	}
	return m.endRun(t, base, &res)
}

// consume advances one stream by one payload word (plus any overhead
// loads preceding it) and reports whether the stream yielded anything.
func (m *Memory) consume(st *pattern.Stream, write bool, t int64, res *Result) (int64, bool) {
	for {
		a, ok := st.Next()
		if !ok {
			return t, false
		}
		if a.Overhead {
			t = m.load(t, a.Addr)
			res.Loads++
			continue
		}
		if write {
			t = m.store(t, a.Addr)
			res.Stores++
		} else {
			t = m.load(t, a.Addr)
			res.Loads++
		}
		res.PayloadBytes += pattern.WordBytes
		return t, true
	}
}

// runStreams zips the two streams round by round (one payload word per
// side per round), fast-forwarding steady-state periods when eligible.
func (m *Memory) runStreams(loads, stores *pattern.Stream, t int64, res *Result) int64 {
	period := m.ffPlan(loads, stores)
	total := 0
	if loads != nil {
		total = loads.Words()
	}
	if stores != nil && stores.Words() > total {
		total = stores.Words()
	}
	var p ffProbe
	probing := period > 0
	if probing {
		p = m.newProbe(loads, stores, period)
	}
	round := 0
	for {
		okL, okS := false, false
		if loads != nil {
			t, okL = m.consume(loads, false, t, res)
		}
		if stores != nil {
			t, okS = m.consume(stores, true, t, res)
		}
		if !okL && !okS {
			break
		}
		round++
		if probing && round%period == 0 && round < total {
			if m.ffSnapshot(&p, t, res) {
				if n := int64(total-round) / int64(period); n > 0 {
					t = m.ffJump(&p, n, t, res)
					round += int(n) * period
					res.FastForwarded = true
				}
				probing = false
			} else if p.taken >= ffMaxProbe {
				probing = false
			}
		}
	}
	return t
}

// load processes one word load at processor time t and returns the new
// processor time.
func (m *Memory) load(t int64, addr int64) int64 {
	t += m.cost.issueLoadFs
	if m.cache.access(addr) {
		return t
	}
	line := m.cache.line(addr)

	// Stream-buffer (RDAL) hit: the line was prefetched; consume it and
	// keep the prefetcher one line ahead.
	if m.cfg.ReadAhead && m.sbValid && line == m.sbLine {
		if m.sbReady > t {
			t = m.sbReady
		}
		t += m.cost.streamHitFs
		m.cache.fill(addr)
		next := (line + 1) * int64(m.cfg.LineBytes)
		m.sbLine = line + 1
		m.sbReady = m.dram.claim(t, next, m.cfg.LineWords())
		m.lastMissLine = line
		return t
	}

	seq := line == m.lastMissLine+1
	m.lastMissLine = line

	// Pipelined (PFQ) load for non-sequential misses: single-word DRAM
	// read with per-transaction bus cost, no cache fill, latency hidden
	// up to the queue depth. Two words in the same 16-byte quad share
	// one 128-bit pipelined load (i860 fld.q), so the second is free —
	// this is what makes dense block-strided runs cheaper than
	// single-word strides.
	if m.cfg.PFQDepth > 0 && !seq {
		if addr>>4 == m.pfqLastAddr>>4 && m.pfq.len() > 0 {
			return t
		}
		m.pfqLastAddr = addr
		if m.pfq.len() >= m.cfg.PFQDepth {
			if d := m.pfq.pop(); d > t {
				t = d
			}
		}
		done := m.dram.claim(t, addr, 2) + m.cost.pfqOpFs
		m.dram.freeAt = done
		m.dram.busy += m.cost.pfqOpFs
		m.pfq.push(done)
		return t
	}

	// Blocking line fill. With critical-word-first support a sequential
	// fill restarts the processor as soon as the first word arrives
	// while the line keeps streaming; otherwise (and for non-sequential
	// fills) the processor waits for the whole line.
	claimAt := t + m.cost.busHalfFs
	dataAt, done := m.dram.claimCW(claimAt, addr, m.cfg.LineWords())
	if seq && m.cfg.CriticalWordFirst {
		t = dataAt + m.cost.busHalfFs
	} else {
		t = done + m.cost.busHalfFs
	}
	if victim, wasDirty := m.cache.fill(addr); wasDirty {
		// Write-back policy: the dirty victim drains to memory in the
		// background (posted).
		m.dram.claimPosted(t, victim*int64(m.cfg.LineBytes), m.cfg.LineWords())
	}

	// Second sequential miss in a row arms the read-ahead unit.
	if m.cfg.ReadAhead && seq {
		next := (line + 1) * int64(m.cfg.LineBytes)
		m.sbValid = true
		m.sbLine = line + 1
		m.sbReady = m.dram.claim(t, next, m.cfg.LineWords())
	}
	return t
}

// store processes one word store at processor time t.
func (m *Memory) store(t int64, addr int64) int64 {
	t += m.cost.issueStoreFs
	switch m.cfg.Policy {
	case WriteThrough:
		// Update the cached copy if present; no extra time.
		if m.cache.lookup(addr) {
			m.cache.access(addr)
		}
	case WriteBack:
		// Hit: dirty the line and stop — no memory traffic at all.
		if m.cache.markDirty(addr) {
			return t
		}
		// Miss: write-allocate. Fetch the line (blocking, like a load
		// miss), write back any dirty victim, then dirty the new line.
		claimAt := t + m.cost.busHalfFs
		_, done := m.dram.claimCW(claimAt, addr, m.cfg.LineWords())
		t = done + m.cost.busHalfFs
		if victim, wasDirty := m.cache.fill(addr); wasDirty {
			m.dram.claimPosted(t, victim*int64(m.cfg.LineBytes), m.cfg.LineWords())
		}
		m.cache.markDirty(addr)
		return t
	default:
		// Write-around: keep the cache coherent by dropping a stale line.
		m.cache.invalidate(addr)
	}

	if m.cfg.WBQEntries == 0 {
		// Blocking store: pays the bus round trip like a blocking load.
		done := m.dram.claim(t+m.cost.busHalfFs, addr, 1)
		t = done + m.cost.busHalfFs
		return t
	}

	line := m.cache.line(addr)
	if m.wbOpen && line == m.wbLine {
		m.wbWords++
		if m.wbWords >= m.cfg.LineWords() {
			t = m.closeWB(t)
		}
		return t
	}
	if m.wbOpen {
		t = m.closeWB(t)
	}
	// Wait for a free queue slot (oldest drain to finish) if needed.
	for m.wbq.len() >= m.cfg.WBQEntries {
		if d := m.wbq.pop(); d > t {
			t = d
		}
	}
	m.wbOpen = true
	m.wbLine = line
	m.wbWords = 1
	return t
}

// closeWB drains the open write entry to DRAM and records its completion.
func (m *Memory) closeWB(t int64) int64 {
	done := m.dram.claimPosted(t, m.wbLine*int64(m.cfg.LineBytes), m.wbWords)
	m.wbq.push(done)
	m.wbOpen = false
	m.wbWords = 0
	return t
}

// flush completes all posted writes and outstanding pipelined loads.
func (m *Memory) flush(t int64) int64 {
	if m.wbOpen {
		t = m.closeWB(t)
	}
	for m.wbq.len() > 0 {
		if d := m.wbq.pop(); d > t {
			t = d
		}
	}
	for m.pfq.len() > 0 {
		if d := m.pfq.pop(); d > t {
			t = d
		}
	}
	m.pfqLastAddr = -1 << 40
	m.sbValid = false
	return t
}

// String identifies the memory system in diagnostics.
func (m *Memory) String() string {
	return fmt.Sprintf("memsim(%s: %dKB/%dB %d-way %v, page %dB, row %g/%g ns, word %g ns)",
		m.cfg.Name, m.cfg.CacheBytes/1024, m.cfg.LineBytes, m.cfg.Ways, m.cfg.Policy,
		m.cfg.PageBytes, m.cfg.RowHitNs, m.cfg.RowMissNs, m.cfg.WordNs)
}
