package memsim

import (
	"testing"

	"ctcomm/internal/pattern"
)

// ffVariants covers the mechanism space the fast-forward layer must be
// exact over: blocking stores, merged posted writes, read-ahead,
// pipelined loads, critical-word-first, write-through, page-closing
// posted writes, write-back with shallow and deep queues, combinations,
// and the memory systems of the two hierarchical machine profiles.
func ffVariants() []Config {
	base := testConfig()
	variant := func(name string, mut func(*Config)) Config {
		c := base
		c.Name = name
		mut(&c)
		return c
	}
	return []Config{
		variant("base", func(c *Config) {}),
		variant("blocking-stores", func(c *Config) { c.WBQEntries = 0 }),
		variant("rdal", func(c *Config) { c.ReadAhead = true }),
		variant("pfq", func(c *Config) { c.PFQDepth = 3; c.PFQOpNs = 25 }),
		variant("cwf", func(c *Config) { c.CriticalWordFirst = true }),
		variant("wt", func(c *Config) { c.Policy = WriteThrough }),
		variant("posted-closes", func(c *Config) { c.PostedWriteClosesPage = true; c.WriteOpNs = 30 }),
		variant("kitchen-sink", func(c *Config) {
			c.ReadAhead = true
			c.PFQDepth = 4
			c.PFQOpNs = 25
			c.CriticalWordFirst = true
			c.Policy = WriteThrough
			c.WriteOpNs = 30
			c.Ways = 2
		}),
		variant("wb", func(c *Config) { c.Policy = WriteBack; c.Ways = 2 }),
		variant("wb-deep", func(c *Config) {
			c.Policy = WriteBack
			c.Ways = 4
			c.ReadAhead = true
			c.CriticalWordFirst = true
			c.WBQEntries = 16
			c.PFQDepth = 8
			c.PFQOpNs = 25
		}),
		clusterMem(),
		xe6Mem(),
	}
}

// clusterMem and xe6Mem are the memory systems of machine profiles
// "mcc" and "xe6", copied verbatim because internal/machine imports
// this package; TestHierarchicalConfigsVerbatim keeps the copies honest.
func clusterMem() Config {
	return Config{
		Name:              "mcc-mem",
		ClockNs:           0.4,
		CacheBytes:        32 * 1024,
		LineBytes:         64,
		Ways:              8,
		Policy:            WriteBack,
		PageBytes:         4096,
		RowHitNs:          15,
		RowMissNs:         45,
		WordNs:            1.0,
		BusOverheadNs:     10,
		CriticalWordFirst: true,
		ReadAhead:         true,
		StreamHitCy:       1,
		WBQEntries:        16,
		PFQDepth:          8,
		PFQOpNs:           2,
		EngineOpNs:        5,
		IssueLoadCy:       1,
		IssueStoreCy:      1,
	}
}

func xe6Mem() Config {
	return Config{
		Name:              "xe6-mem",
		ClockNs:           0.435,
		CacheBytes:        64 * 1024,
		LineBytes:         64,
		Ways:              2,
		Policy:            WriteBack,
		PageBytes:         4096,
		RowHitNs:          12,
		RowMissNs:         40,
		WordNs:            0.8,
		BusOverheadNs:     8,
		CriticalWordFirst: true,
		ReadAhead:         true,
		StreamHitCy:       1,
		WBQEntries:        8,
		PFQDepth:          8,
		PFQOpNs:           2,
		EngineOpNs:        4,
		IssueLoadCy:       1,
		IssueStoreCy:      1,
	}
}

func ffSpecs() []pattern.Spec {
	return []pattern.Spec{
		pattern.Contig(),
		pattern.Strided(64),
		pattern.Strided(7),
		pattern.StridedBlock(64, 2),
		pattern.StridedBlock(16, 4),
	}
}

// sansFF clears the FastForwarded provenance flag before a bitwise
// Result comparison. The exactness contract covers every timing and
// count field; FastForwarded records *how* the result was produced and
// so legitimately differs between the fast-forward and reference paths.
func sansFF(r Result) Result { r.FastForwarded = false; return r }

// runPair executes the same transfer on two fresh memories, one with
// fast-forward enabled and one without, and returns both results.
func runPair(cfg Config, load, store pattern.Spec, words int, policy InterleavePolicy) (on, off Result) {
	build := func(ff FFMode) Result {
		c := cfg
		c.FastForward = ff
		m := MustNew(c)
		ls := pattern.NewStream(load, 0, words)
		ss := pattern.NewStream(store, 1<<30, words).ForWrites()
		return m.RunStream(ls, ss, policy)
	}
	return build(FastForwardAuto), build(FastForwardOff)
}

// TestFastForwardDifferential is the exactness proof required by the
// fast-forward convention (DESIGN.md §6): every Result field must be
// bit-identical with fast-forward on vs. off, across mechanisms,
// patterns, sizes (including non-multiple-of-period tails) and policies.
func TestFastForwardDifferential(t *testing.T) {
	words := []int{1 << 14, 1<<14 + 37, 12345}
	if testing.Short() {
		words = words[:1]
	}
	for _, cfg := range ffVariants() {
		for _, ld := range ffSpecs() {
			for _, st := range ffSpecs() {
				for _, w := range words {
					on, off := runPair(cfg, ld, st, w, InterleaveWordwise)
					if sansFF(on) != off {
						t.Errorf("%s %v->%v words=%d: ff on %+v != off %+v", cfg.Name, ld, st, w, on, off)
					}
				}
			}
		}
	}
}

// TestFastForwardDifferentialSingleSided covers load-only and store-only
// streams (the xS0/0Ry shapes) plus the loads-first policy.
func TestFastForwardDifferentialSingleSided(t *testing.T) {
	for _, cfg := range ffVariants() {
		for _, spec := range ffSpecs() {
			for _, w := range []int{1 << 14, 9999} {
				runOne := func(ff FFMode, loadSide bool) Result {
					c := cfg
					c.FastForward = ff
					m := MustNew(c)
					if loadSide {
						return m.RunStream(pattern.NewStream(spec, 0, w), nil, InterleaveWordwise)
					}
					return m.RunStream(nil, pattern.NewStream(spec, 0, w).ForWrites(), InterleaveWordwise)
				}
				if on, off := runOne(FastForwardAuto, true), runOne(FastForwardOff, true); sansFF(on) != off {
					t.Errorf("%s loads %v words=%d: ff on %+v != off %+v", cfg.Name, spec, w, on, off)
				}
				if on, off := runOne(FastForwardAuto, false), runOne(FastForwardOff, false); sansFF(on) != off {
					t.Errorf("%s stores %v words=%d: ff on %+v != off %+v", cfg.Name, spec, w, on, off)
				}
			}
		}
	}
}

// TestFastForwardLoadsFirstPolicy exercises the staged interleave.
func TestFastForwardLoadsFirstPolicy(t *testing.T) {
	for _, cfg := range ffVariants() {
		on, off := runPair(cfg, pattern.Strided(64), pattern.Contig(), 1<<14, InterleaveLoadsFirst)
		if sansFF(on) != off {
			t.Errorf("%s loads-first: ff on %+v != off %+v", cfg.Name, on, off)
		}
	}
}

// TestFastForwardWarmSequence runs a chain of transfers on one memory,
// so each run starts from the cache the previous one left: lines of
// other buffers, lines of its own buffers ahead of and behind its
// streams, and dirty lines under write-back. Every Result must match
// the same chain simulated word by word.
func TestFastForwardWarmSequence(t *testing.T) {
	type step struct {
		load, store pattern.Spec
		lb, sb      int64
		policy      InterleavePolicy
	}
	const words = 1<<16 + 37 // at least 5 periods on every variant
	chain := []step{
		{pattern.Contig(), pattern.Contig(), 0, 1 << 30, InterleaveWordwise},
		{pattern.Strided(64), pattern.Contig(), 0, 1 << 30, InterleaveWordwise},
		{pattern.Contig(), pattern.StridedBlock(64, 2), 1 << 30, 0, InterleaveWordwise},
		{pattern.Contig(), pattern.Contig(), 1 << 30, 0, InterleaveLoadsFirst},
		{pattern.Strided(7), pattern.Strided(64), 1 << 20, 1 << 30, InterleaveWordwise},
		{pattern.Contig(), pattern.Contig(), 0, 1 << 30, InterleaveWordwise},
	}
	for _, cfg := range ffVariants() {
		run := func(ff FFMode) []Result {
			c := cfg
			c.FastForward = ff
			m := MustNew(c)
			var out []Result
			for _, s := range chain {
				ls := pattern.NewStream(s.load, s.lb, words)
				ss := pattern.NewStream(s.store, s.sb, words).ForWrites()
				out = append(out, sansFF(m.RunStream(ls, ss, s.policy)))
			}
			return out
		}
		on, off := run(FastForwardAuto), run(FastForwardOff)
		for i := range chain {
			if on[i] != off[i] {
				t.Errorf("%s step %d: ff on %+v != off %+v", cfg.Name, i, on[i], off[i])
			}
		}
	}
}

// TestFastForwardEngages guards against the optimization silently never
// kicking in: a large contiguous run must skip most rounds (observable
// through the probe state by construction — here we just require the
// fast path to be dramatically cheaper by instruction count, measured
// via the period plan).
func TestFastForwardEngages(t *testing.T) {
	m := MustNew(testConfig())
	loads := pattern.NewStream(pattern.Contig(), 0, 1<<16)
	period := m.ffPlan(loads, nil)
	if period == 0 {
		t.Fatal("contiguous 64K-word run must be fast-forward eligible")
	}
	if period > 1<<12 {
		t.Errorf("period %d rounds implausibly large", period)
	}
	// Strided and block-strided must also plan.
	if p := m.ffPlan(pattern.NewStream(pattern.Strided(64), 0, 1<<16), nil); p == 0 {
		t.Error("strided run must be eligible")
	}
	// Indexed and overlapping-block patterns must not.
	idx := pattern.NewStream(pattern.Indexed(), 0, 1<<16).WithIndex(pattern.Permutation(1<<16, 1))
	if p := m.ffPlan(idx, nil); p != 0 {
		t.Error("indexed run must not be eligible")
	}
	// Unaligned base must not.
	if p := m.ffPlan(pattern.NewStream(pattern.Contig(), 8, 1<<16), nil); p != 0 {
		t.Error("line-unaligned run must not be eligible")
	}
	// Write-back must plan too, with the deep queues of the
	// hierarchical profiles.
	for _, cfg := range []Config{clusterMem(), xe6Mem()} {
		if p := MustNew(cfg).ffPlan(loads, nil); p == 0 {
			t.Errorf("%s: write-back run must be eligible", cfg.Name)
		}
	}
	// Explicitly disabled must not.
	cfg := testConfig()
	cfg.FastForward = FastForwardOff
	offM := MustNew(cfg)
	if p := offM.ffPlan(loads, nil); p != 0 {
		t.Error("FastForwardOff must disable planning")
	}
}

// TestFastForwardEngagesWriteBack requires the calibration copy 1C1 at
// the paper's block size (2^17 words) to fast-forward on the write-back
// memory systems of both hierarchical profiles.
func TestFastForwardEngagesWriteBack(t *testing.T) {
	const words = 1 << 17
	for _, cfg := range []Config{clusterMem(), xe6Mem()} {
		loads := pattern.NewStream(pattern.Contig(), 0, words)
		stores := pattern.NewStream(pattern.Contig(), 1<<30, words).ForWrites()
		if res := MustNew(cfg).RunStream(loads, stores, InterleaveWordwise); !res.FastForwarded {
			t.Errorf("%s: 2^17-word 1C1 copy did not fast-forward", cfg.Name)
		}
	}
}

// TestRunStreamMatchesRun proves the streaming API reproduces the
// slice-based adapter bit for bit (same engine, same schedule).
func TestRunStreamMatchesRun(t *testing.T) {
	for _, cfg := range ffVariants() {
		for _, spec := range ffSpecs() {
			st := pattern.NewStream(spec, 0, 4096)
			ref := MustNew(cfg).Run(st.Accesses(false))
			got := MustNew(cfg).RunStream(st, nil, InterleaveWordwise)
			if sansFF(got) != ref {
				t.Errorf("%s %v: RunStream %+v != Run %+v", cfg.Name, spec, got, ref)
			}
		}
	}
}

// TestRunStreamStateCarriesOver ensures back-to-back RunStream calls see
// warm cache/page state exactly like back-to-back Run calls.
func TestRunStreamStateCarriesOver(t *testing.T) {
	st := pattern.NewStream(pattern.Contig(), 0, 4096)
	a := MustNew(testConfig())
	b := MustNew(testConfig())
	for i := 0; i < 3; i++ {
		ra := a.Run(st.Accesses(false))
		rb := b.RunStream(st, nil, InterleaveWordwise)
		if ra != sansFF(rb) {
			t.Fatalf("pass %d: Run %+v != RunStream %+v", i, ra, rb)
		}
	}
}

// TestRunStreamAllocFree asserts the tentpole target: zero heap
// allocations per transfer in the contiguous and strided steady states.
func TestRunStreamAllocFree(t *testing.T) {
	var wbDeep Config
	for _, c := range ffVariants() {
		if c.Name == "wb-deep" {
			wbDeep = c
		}
	}
	for _, base := range []Config{testConfig(), wbDeep} {
		for _, spec := range []pattern.Spec{pattern.Contig(), pattern.Strided(64), pattern.StridedBlock(64, 2)} {
			for _, ff := range []FFMode{FastForwardAuto, FastForwardOff} {
				cfg := base
				cfg.FastForward = ff
				m := MustNew(cfg)
				loads := pattern.NewStream(spec, 0, 1<<13)
				stores := pattern.NewStream(spec, 1<<30, 1<<13).ForWrites()
				avg := testing.AllocsPerRun(10, func() {
					m.RunStream(loads, stores, InterleaveWordwise)
				})
				if avg != 0 {
					t.Errorf("%s %v ff=%v: %v allocs per RunStream, want 0", cfg.Name, spec, ff, avg)
				}
			}
		}
	}
}

// FuzzStreamEquivalence drives RunStream against the slice path with
// fuzz-chosen shapes; any divergence in any Result field is a failure.
// The mangle selector additionally perturbs the streams with
// Skip/Next/Peek (boundary counts included: zero, negative, past the
// end) before the run; RunStream resets its streams, so pre-existing
// stream state must never leak into the result.
func FuzzStreamEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint16(512), uint8(0), false, uint8(0))
	f.Add(uint8(1), uint8(2), uint16(4096), uint8(3), true, uint8(7))
	f.Add(uint8(3), uint8(1), uint16(1000), uint8(7), false, uint8(29))
	f.Add(uint8(5), uint8(5), uint16(64), uint8(1), false, uint8(255))
	f.Fuzz(func(t *testing.T, loadSel, storeSel uint8, words16 uint16, cfgSel uint8, loadsFirst bool, mangle uint8) {
		specs := []pattern.Spec{
			pattern.Contig(), pattern.Strided(3), pattern.Strided(64),
			pattern.StridedBlock(64, 2), pattern.StridedBlock(5, 3), pattern.Indexed(),
		}
		words := int(words16)
		load := specs[int(loadSel)%len(specs)]
		store := specs[int(storeSel)%len(specs)]
		variants := ffVariants()
		cfg := variants[int(cfgSel)%len(variants)]
		policy := InterleaveWordwise
		if loadsFirst {
			policy = InterleaveLoadsFirst
		}

		mkStream := func(spec pattern.Spec, base int64, seed uint64) *pattern.Stream {
			st := pattern.NewStream(spec, base, words)
			if spec.Kind() == pattern.KindIndexed {
				st.WithIndex(pattern.Permutation(words, seed))
			}
			return st
		}
		ls := mkStream(load, 0, 101)
		ss := mkStream(store, 1<<30, 202).ForWrites()

		// Reference: materialize, interleave per policy, run slice path
		// with fast-forward unavailable by construction.
		reads, writes := ls.Accesses(false), ss.Accesses(true)
		var acc []pattern.Access
		if policy == InterleaveLoadsFirst {
			acc = append(append(acc, reads...), writes...)
		} else {
			i, j := 0, 0
			for i < len(reads) || j < len(writes) {
				for i < len(reads) && reads[i].Overhead {
					acc = append(acc, reads[i])
					i++
				}
				if i < len(reads) {
					acc = append(acc, reads[i])
					i++
				}
				for j < len(writes) && writes[j].Overhead {
					acc = append(acc, writes[j])
					j++
				}
				if j < len(writes) {
					acc = append(acc, writes[j])
					j++
				}
			}
		}
		ref := MustNew(cfg).Run(acc)

		// Perturb stream positions before the run (Accesses above left
		// both streams reset); RunStream must reset them itself, so none
		// of this state may leak into the result.
		for i, st := range []*pattern.Stream{ls, ss} {
			bits := mangle >> (uint(i) * 4)
			if bits&1 != 0 {
				st.Skip(int(bits >> 1)) // includes Skip(0)
			}
			if bits&2 != 0 {
				st.Next()
				st.Peek()
			}
			if bits&4 != 0 {
				st.Skip(-3) // must not rewind
			}
			if bits&8 != 0 {
				st.Skip(words + 17) // past the end
			}
		}

		got := MustNew(cfg).RunStream(ls, ss, policy)
		if sansFF(got) != ref {
			t.Fatalf("%s %v->%v words=%d policy=%d:\nRunStream %+v\nRun       %+v",
				cfg.Name, load, store, words, policy, got, ref)
		}
	})
}
