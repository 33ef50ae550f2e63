package memsim

import "testing"

// newCache returns an empty cache of cfg's geometry, as a Memory
// built from cfg holds it.
func newCache(cfg *Config) *cache {
	c := &cache{}
	c.alloc(cfg.CacheBytes / cfg.LineBytes)
	c.configure(cfg)
	c.reset()
	return c
}

func newTestCache() *cache {
	cfg := testConfig()
	return newCache(&cfg)
}

func TestCacheFillReportsEviction(t *testing.T) {
	c := newTestCache()
	if line, dirty := c.fill(0); line != -1 || dirty {
		t.Errorf("first fill evicted %d/%v", line, dirty)
	}
	// Refill of the same line is a no-op.
	if line, _ := c.fill(0); line != -1 {
		t.Errorf("refill evicted %d", line)
	}
	// A conflicting line (direct-mapped) evicts line 0, clean.
	s := int64(8 * 1024)
	if line, dirty := c.fill(s); line != 0 || dirty {
		t.Errorf("conflict fill evicted %d/%v, want 0/clean", line, dirty)
	}
}

func TestCacheMarkDirtyAndEvict(t *testing.T) {
	c := newTestCache()
	c.fill(0)
	if !c.markDirty(0) {
		t.Fatal("markDirty on present line failed")
	}
	if c.markDirty(1 << 20) {
		t.Fatal("markDirty on absent line succeeded")
	}
	s := int64(8 * 1024)
	line, dirty := c.fill(s)
	if line != 0 || !dirty {
		t.Errorf("evicted %d/%v, want dirty line 0", line, dirty)
	}
	// The new resident starts clean.
	if line2, dirty2 := c.fill(2 * s); line2 != s/32 || dirty2 {
		t.Errorf("evicted %d/%v, want clean line %d", line2, dirty2, s/32)
	}
}

func TestCacheInvalidateClearsDirty(t *testing.T) {
	c := newTestCache()
	c.fill(0)
	c.markDirty(0)
	c.invalidate(0)
	// Refill after invalidate: no dirty eviction possible.
	c.fill(0)
	s := int64(8 * 1024)
	if _, dirty := c.fill(s); dirty {
		t.Error("invalidated line leaked its dirty bit")
	}
}

func TestCacheLookupDoesNotTouchLRU(t *testing.T) {
	cfg := testConfig()
	cfg.Ways = 2
	c := newCache(&cfg)
	s := int64(cfg.CacheBytes / cfg.Ways) // same set, different ways
	c.fill(0)
	c.fill(s)
	// lookup(0) must NOT refresh line 0's LRU position...
	c.lookup(0)
	// ...so a third conflicting fill evicts line 0 (the LRU way).
	if line, _ := c.fill(2 * s); line != 0 {
		t.Errorf("evicted line %d, want 0 (lookup must not refresh LRU)", line)
	}
}
