package memsim

import (
	"testing"
	"testing/quick"

	"ctcomm/internal/pattern"
)

// testConfig is a small, fast generic memory system used by unit tests
// (machine-accurate profiles live in internal/machine).
func testConfig() Config {
	return Config{
		Name:          "test",
		ClockNs:       5,
		CacheBytes:    8 * 1024,
		LineBytes:     32,
		Ways:          1,
		Policy:        WriteAround,
		PageBytes:     2048,
		RowHitNs:      40,
		RowMissNs:     120,
		WordNs:        15,
		BusOverheadNs: 60,
		ReadAhead:     false,
		StreamHitCy:   2,
		WBQEntries:    4,
		PFQDepth:      0,
		IssueLoadCy:   1, IssueStoreCy: 1,
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("good config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.ClockNs = 0 },
		func(c *Config) { c.LineBytes = 24 },
		func(c *Config) { c.LineBytes = 4 },
		func(c *Config) { c.CacheBytes = 100 },
		func(c *Config) { c.Ways = 0 },
		func(c *Config) { c.Ways = 3 },
		func(c *Config) { c.PageBytes = 16 },
		func(c *Config) { c.PageBytes = 1000 },
		func(c *Config) { c.RowHitNs = 200 }, // > RowMissNs
		func(c *Config) { c.WordNs = 0 },
		func(c *Config) { c.WBQEntries = -1 },
		func(c *Config) { c.PFQDepth = -1 },
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestWritePolicyString(t *testing.T) {
	if WriteAround.String() != "write-around" || WriteThrough.String() != "write-through" {
		t.Error("unexpected WritePolicy strings")
	}
}

func TestCacheHitAfterFill(t *testing.T) {
	m := MustNew(testConfig())
	// Two loads of the same word: second must hit.
	acc := []pattern.Access{{Addr: 0}, {Addr: 0}}
	res := m.Run(acc)
	if res.CacheHits != 1 || res.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", res.CacheHits, res.CacheMisses)
	}
}

func TestCacheSpatialLocality(t *testing.T) {
	m := MustNew(testConfig())
	// Four consecutive words share a 32-byte line: 1 miss, 3 hits.
	res := m.Run(pattern.NewStream(pattern.Contig(), 0, 4).Accesses(false))
	if res.CacheMisses != 1 || res.CacheHits != 3 {
		t.Errorf("hits=%d misses=%d, want 3/1", res.CacheHits, res.CacheMisses)
	}
}

func TestCacheConflictEviction(t *testing.T) {
	cfg := testConfig() // 8KB direct-mapped
	m := MustNew(cfg)
	// Two addresses exactly cache-size apart conflict in a direct-mapped
	// cache: the third access (back to the first word) must miss again.
	s := int64(cfg.CacheBytes)
	res := m.Run([]pattern.Access{{Addr: 0}, {Addr: s}, {Addr: 0}})
	if res.CacheMisses != 3 {
		t.Errorf("misses=%d, want 3 (conflict eviction)", res.CacheMisses)
	}
}

func TestAssociativityAvoidsConflict(t *testing.T) {
	cfg := testConfig()
	cfg.Ways = 2
	m := MustNew(cfg)
	s := int64(cfg.CacheBytes)
	res := m.Run([]pattern.Access{{Addr: 0}, {Addr: s}, {Addr: 0}})
	if res.CacheMisses != 2 || res.CacheHits != 1 {
		t.Errorf("misses=%d hits=%d, want 2/1 (2-way keeps both)", res.CacheMisses, res.CacheHits)
	}
}

func TestWriteAroundInvalidates(t *testing.T) {
	m := MustNew(testConfig())
	res := m.Run([]pattern.Access{
		{Addr: 0},              // load: fills line
		{Addr: 0, Write: true}, // write-around: invalidates
		{Addr: 0},              // load again: must miss
	})
	if res.CacheMisses != 2 {
		t.Errorf("misses=%d, want 2", res.CacheMisses)
	}
}

func TestWriteThroughUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = WriteThrough
	m := MustNew(cfg)
	res := m.Run([]pattern.Access{
		{Addr: 0},
		{Addr: 0, Write: true}, // write-through: line stays
		{Addr: 0},
	})
	if res.CacheMisses != 1 {
		t.Errorf("misses=%d, want 1", res.CacheMisses)
	}
}

func TestWBQMergesContiguousStores(t *testing.T) {
	cfg := testConfig()
	m := MustNew(cfg)
	// 16 contiguous stores = 4 full lines -> 4 DRAM bursts.
	res := m.Run(pattern.NewStream(pattern.Contig(), 0, 16).Accesses(true))
	burst := res.RowHits + res.RowMisses
	if burst != 4 {
		t.Errorf("DRAM accesses = %d, want 4 (line merging)", burst)
	}
}

func TestWBQStridedStoresGoWordByWord(t *testing.T) {
	m := MustNew(testConfig())
	res := m.Run(pattern.NewStream(pattern.Strided(64), 0, 16).Accesses(true))
	if got := res.RowHits + res.RowMisses; got != 16 {
		t.Errorf("DRAM accesses = %d, want 16", got)
	}
}

func TestWBQHidesStoreLatency(t *testing.T) {
	// With a posted-write queue, strided stores should be faster than
	// with blocking stores.
	withQ := testConfig()
	noQ := testConfig()
	noQ.WBQEntries = 0
	acc := pattern.NewStream(pattern.Strided(64), 0, 1024).Accesses(true)
	rq := MustNew(withQ).Run(acc)
	rn := MustNew(noQ).Run(acc)
	if rq.ElapsedNs >= rn.ElapsedNs {
		t.Errorf("WBQ run %.0fns not faster than blocking %.0fns", rq.ElapsedNs, rn.ElapsedNs)
	}
}

func TestRDALSpeedsUpContiguousLoads(t *testing.T) {
	off := testConfig()
	on := testConfig()
	on.ReadAhead = true
	acc := pattern.NewStream(pattern.Contig(), 0, 4096).Accesses(false)
	tOff := MustNew(off).Run(acc).ElapsedNs
	tOn := MustNew(on).Run(acc).ElapsedNs
	if tOn >= tOff {
		t.Fatalf("read-ahead run %.0fns not faster than %.0fns", tOn, tOff)
	}
	// Paper §3.5.1 reports about 60% improvement from RDAL; require a
	// substantial gain (>= 30%) from the mechanism.
	if gain := tOff/tOn - 1; gain < 0.30 {
		t.Errorf("read-ahead gain %.0f%%, want >= 30%%", gain*100)
	}
}

func TestRDALDoesNotAffectStridedLoads(t *testing.T) {
	off := testConfig()
	on := testConfig()
	on.ReadAhead = true
	acc := pattern.NewStream(pattern.Strided(64), 0, 1024).Accesses(false)
	tOff := MustNew(off).Run(acc).ElapsedNs
	tOn := MustNew(on).Run(acc).ElapsedNs
	if tOn != tOff {
		t.Errorf("read-ahead changed strided load time: %.0f vs %.0f", tOn, tOff)
	}
}

func TestPFQSpeedsUpStridedLoads(t *testing.T) {
	noQ := testConfig()
	withQ := testConfig()
	withQ.PFQDepth = 3
	acc := pattern.NewStream(pattern.Strided(64), 0, 1024).Accesses(false)
	tNo := MustNew(noQ).Run(acc).ElapsedNs
	tQ := MustNew(withQ).Run(acc).ElapsedNs
	if tQ >= tNo {
		t.Errorf("pipelined loads %.0fns not faster than blocking %.0fns", tQ, tNo)
	}
}

func TestDRAMRowLocality(t *testing.T) {
	m := MustNew(testConfig())
	// Strided stores within one 2KB page: first access misses the row,
	// the rest hit it.
	res := m.Run(pattern.NewStream(pattern.Strided(32), 0, 8).Accesses(true)) // 8*256B = 2KB
	if res.RowMisses != 1 || res.RowHits != 7 {
		t.Errorf("row hits/misses = %d/%d, want 7/1", res.RowHits, res.RowMisses)
	}
}

func TestResultMBps(t *testing.T) {
	r := Result{ElapsedNs: 1000, PayloadBytes: 100}
	if got := r.MBps(); got != 100 {
		t.Errorf("MBps = %v, want 100", got)
	}
	if got := (Result{}).MBps(); got != 0 {
		t.Errorf("empty MBps = %v, want 0", got)
	}
	if got := MBps(80, 1000); got != 80 {
		t.Errorf("MBps(80,1000) = %v, want 80", got)
	}
	if got := MBps(80, 0); got != 0 {
		t.Errorf("MBps with 0ns = %v, want 0", got)
	}
}

func TestEngineWriteContiguousUsesBursts(t *testing.T) {
	m := MustNew(testConfig())
	st := pattern.NewStream(pattern.Contig(), 0, 64)
	res := m.EngineWrite(st)
	if got := res.RowHits + res.RowMisses; got != 16 {
		t.Errorf("DRAM accesses = %d, want 16 line bursts", got)
	}
	if res.PayloadBytes != 64*8 {
		t.Errorf("payload = %d, want %d", res.PayloadBytes, 64*8)
	}
}

func TestEngineWriteStridedIsSlower(t *testing.T) {
	m := MustNew(testConfig())
	c := m.EngineWrite(pattern.NewStream(pattern.Contig(), 0, 4096))
	m.Reset()
	s := m.EngineWrite(pattern.NewStream(pattern.Strided(64), 0, 4096))
	if s.MBps() >= c.MBps() {
		t.Errorf("strided deposit %.1f MB/s >= contiguous %.1f MB/s", s.MBps(), c.MBps())
	}
}

func TestEngineWriteInvalidatesCache(t *testing.T) {
	m := MustNew(testConfig())
	m.Run([]pattern.Access{{Addr: 0}})                       // fill line 0
	m.EngineWrite(pattern.NewStream(pattern.Contig(), 0, 4)) // deposit over it
	res := m.Run([]pattern.Access{{Addr: 0}})                // must miss now
	if res.CacheMisses != 1 {
		t.Errorf("misses=%d, want 1 after deposit invalidation", res.CacheMisses)
	}
}

func TestEngineReadMatchesWriteShape(t *testing.T) {
	m := MustNew(testConfig())
	r := m.EngineRead(pattern.NewStream(pattern.Contig(), 0, 1024))
	if r.Loads != 1024 || r.Stores != 0 {
		t.Errorf("loads/stores = %d/%d", r.Loads, r.Stores)
	}
	if r.MBps() <= 0 {
		t.Error("engine read rate must be positive")
	}
}

func TestEngineIndexedStream(t *testing.T) {
	m := MustNew(testConfig())
	idx := pattern.Permutation(256, 1)
	st := pattern.NewStream(pattern.Indexed(), 0, 256).WithIndex(idx)
	res := m.EngineWrite(st)
	if res.Stores != 256 {
		t.Errorf("stores = %d, want 256", res.Stores)
	}
}

func TestDeterminism(t *testing.T) {
	acc := pattern.NewStream(pattern.Strided(16), 0, 512).Accesses(false)
	a := MustNew(testConfig()).Run(acc)
	b := MustNew(testConfig()).Run(acc)
	if a != b {
		t.Errorf("results differ: %+v vs %+v", a, b)
	}
}

func TestResetClearsState(t *testing.T) {
	m := MustNew(testConfig())
	m.Run(pattern.NewStream(pattern.Contig(), 0, 64).Accesses(false))
	m.Reset()
	res := m.Run([]pattern.Access{{Addr: 0}})
	if res.CacheHits != 0 {
		t.Error("cache should be cold after Reset")
	}
}

// Property: elapsed time is never less than DRAM busy time (single bank,
// serialized claims) and is monotone in stream length.
func TestElapsedBoundsProperty(t *testing.T) {
	f := func(strideRaw uint8, wordsRaw uint16, write bool) bool {
		stride := int(strideRaw)%100 + 1
		words := int(wordsRaw)%2000 + 1
		m := MustNew(testConfig())
		res := m.Run(pattern.NewStream(pattern.Strided(stride), 0, words).Accesses(write))
		return res.ElapsedNs >= res.DRAMBusyNs && res.ElapsedNs > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: throughput of a long stream does not depend on base address
// alignment to lines (streams start line-aligned here), and doubling the
// stream length roughly preserves steady-state throughput (+-20%).
func TestSteadyStateThroughputProperty(t *testing.T) {
	for _, spec := range []pattern.Spec{pattern.Contig(), pattern.Strided(8), pattern.Strided(64)} {
		m1 := MustNew(testConfig())
		r1 := m1.Run(pattern.NewStream(spec, 0, 4096).Accesses(false))
		m2 := MustNew(testConfig())
		r2 := m2.Run(pattern.NewStream(spec, 0, 8192).Accesses(false))
		ratio := r1.MBps() / r2.MBps()
		if ratio < 0.8 || ratio > 1.2 {
			t.Errorf("%v: throughput not steady: %.1f vs %.1f MB/s", spec, r1.MBps(), r2.MBps())
		}
	}
}

func TestMemoryString(t *testing.T) {
	m := MustNew(testConfig())
	if m.String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.WordNs = -1
	if _, err := New(cfg); err == nil {
		t.Error("New should reject invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(cfg)
}

func TestWriteBackHitsAreFree(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = WriteBack
	m := MustNew(cfg)
	// Load fills the line; repeated stores to it cost only issue time
	// and generate no DRAM traffic.
	m.Run([]pattern.Access{{Addr: 0}})
	res := m.Run(pattern.NewStream(pattern.Contig(), 0, 4).Accesses(true))
	if got := res.RowHits + res.RowMisses; got != 0 {
		t.Errorf("write-back hits produced %d DRAM accesses, want 0", got)
	}
	wantNs := 4 * cfg.IssueStoreCy * cfg.ClockNs
	if res.ElapsedNs != wantNs {
		t.Errorf("elapsed = %v, want %v (issue only)", res.ElapsedNs, wantNs)
	}
}

func TestWriteBackAllocatesOnMiss(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = WriteBack
	m := MustNew(cfg)
	res := m.Run([]pattern.Access{{Addr: 0, Write: true}})
	// Write-allocate: one line fetch.
	if got := res.RowHits + res.RowMisses; got != 1 {
		t.Errorf("store miss produced %d DRAM accesses, want 1 (allocate)", got)
	}
	// The line is now cached and dirty: another store is free.
	res = m.Run([]pattern.Access{{Addr: 8, Write: true}})
	if got := res.RowHits + res.RowMisses; got != 0 {
		t.Errorf("second store produced %d DRAM accesses, want 0", got)
	}
}

func TestWriteBackEvictionDrainsDirtyLine(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = WriteBack
	cfg.Ways = 1
	m := MustNew(cfg)
	s := int64(cfg.CacheBytes) // conflicts with line 0 in a direct-mapped cache
	res := m.Run([]pattern.Access{
		{Addr: 0, Write: true}, // allocate + dirty line 0
		{Addr: s, Write: true}, // conflict: allocate line s, write back line 0
	})
	// Three DRAM operations: two allocates plus one dirty write-back.
	if got := res.RowHits + res.RowMisses; got != 3 {
		t.Errorf("DRAM accesses = %d, want 3", got)
	}
}

func TestWriteBackLoadEvictionAlsoDrains(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = WriteBack
	cfg.Ways = 1
	m := MustNew(cfg)
	s := int64(cfg.CacheBytes)
	res := m.Run([]pattern.Access{
		{Addr: 0, Write: true}, // dirty line 0
		{Addr: s},              // load conflicts: write back + fill
	})
	if got := res.RowHits + res.RowMisses; got != 3 {
		t.Errorf("DRAM accesses = %d, want 3", got)
	}
}

func TestWriteBackStridedStillSlow(t *testing.T) {
	// Write-back only helps when lines are reused; a strided store
	// stream far beyond the cache still pays allocate + eventual
	// write-back per line and stays slower than contiguous.
	cfg := testConfig()
	cfg.Policy = WriteBack
	contig := MustNew(cfg).Run(pattern.NewStream(pattern.Contig(), 0, 1<<12).Accesses(true))
	strided := MustNew(cfg).Run(pattern.NewStream(pattern.Strided(64), 0, 1<<12).Accesses(true))
	if strided.MBps() >= contig.MBps() {
		t.Errorf("strided write-back %.1f >= contiguous %.1f MB/s", strided.MBps(), contig.MBps())
	}
}
