package memsim

import "math/bits"

// cache is a set-associative, LRU, word-addressed tag store. Only tags
// are tracked — the simulator needs hit/miss decisions and evictions,
// never data. Under the write-around and write-through policies of the
// paper's two machines evictions are free; under the write-back policy
// of the hierarchical profiles a dirty victim is written back to DRAM
// (Memory.load and Memory.store), so which line is evicted shapes the
// timing.
type cache struct {
	lineBytes int
	lineShift uint  // log2(lineBytes); LineBytes is validated a power of two
	setMask   int64 // sets-1 when sets is a power of two, else -1
	sets      int
	ways      int
	// Way w of set s is entry s*ways+w of three flat arrays: tags holds
	// the line number (addr/lineBytes) or -1, lru a monotonically
	// increasing use stamp, and dirty marks lines modified under a
	// write-back policy. Flat arrays keep a fresh cache to three
	// allocations and let reset clear it in place.
	tags  []int64
	lru   []int64
	dirty []bool
	stamp int64

	hits      int64
	misses    int64
	evictions int64
}

// alloc sizes the tag store for lines cache lines; configure and reset
// must follow before use.
func (c *cache) alloc(lines int) {
	c.tags = make([]int64, lines)
	c.lru = make([]int64, lines)
	c.dirty = make([]bool, lines)
}

// configure applies cfg's geometry, which must fill the allocated
// lines exactly.
func (c *cache) configure(cfg *Config) {
	c.lineBytes = cfg.LineBytes
	c.lineShift = uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c.ways = cfg.Ways
	c.sets = len(c.tags) / cfg.Ways
	c.setMask = -1
	if c.sets&(c.sets-1) == 0 {
		c.setMask = int64(c.sets - 1)
	}
}

// reset empties the cache and zeroes its stamp and counters.
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = -1
	}
	clear(c.lru)
	clear(c.dirty)
	c.stamp = 0
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// line maps a byte address to its line number. Addresses are
// non-negative, so the shift equals division by lineBytes.
func (c *cache) line(addr int64) int64 { return addr >> c.lineShift }

// set returns the index of the first way of the set line maps to.
func (c *cache) set(line int64) int {
	if c.setMask >= 0 {
		return int(line&c.setMask) * c.ways
	}
	s := line % int64(c.sets)
	if s < 0 {
		s += int64(c.sets)
	}
	return int(s) * c.ways
}

// lookup probes the cache without modifying LRU state.
func (c *cache) lookup(addr int64) bool {
	line := c.line(addr)
	s := c.set(line)
	for i := s; i < s+c.ways; i++ {
		if c.tags[i] == line {
			return true
		}
	}
	return false
}

// access probes the cache and updates LRU state on a hit. It reports
// whether the word hit.
func (c *cache) access(addr int64) bool {
	line := c.line(addr)
	s := c.set(line)
	for i := s; i < s+c.ways; i++ {
		if c.tags[i] == line {
			c.stamp++
			c.lru[i] = c.stamp
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// fill inserts the line containing addr, evicting the LRU way if the set
// is full. It reports the evicted line and whether it was dirty (needing
// a write-back under the write-back policy).
func (c *cache) fill(addr int64) (evictedLine int64, evictedDirty bool) {
	line := c.line(addr)
	s := c.set(line)
	victim, oldest := s, int64(1<<62)
	for i := s; i < s+c.ways; i++ {
		if c.tags[i] == line {
			return -1, false // already present (e.g. racing prefetch)
		}
		if c.tags[i] == -1 {
			victim, oldest = i, -1
			break
		}
		if c.lru[i] < oldest {
			victim, oldest = i, c.lru[i]
		}
	}
	evictedLine, evictedDirty = -1, false
	if c.tags[victim] != -1 {
		c.evictions++
		evictedLine = c.tags[victim]
		evictedDirty = c.dirty[victim]
	}
	c.stamp++
	c.tags[victim] = line
	c.lru[victim] = c.stamp
	c.dirty[victim] = false
	return evictedLine, evictedDirty
}

// markDirty flags the line containing addr as modified; it reports
// whether the line was present.
func (c *cache) markDirty(addr int64) bool {
	line := c.line(addr)
	s := c.set(line)
	for i := s; i < s+c.ways; i++ {
		if c.tags[i] == line {
			c.dirty[i] = true
			c.stamp++
			c.lru[i] = c.stamp
			return true
		}
	}
	return false
}

// invalidate drops the line containing addr if present. The T3D deposit
// engine invalidates cached copies line by line as remote stores land
// (paper §3.5.1).
func (c *cache) invalidate(addr int64) {
	line := c.line(addr)
	s := c.set(line)
	for i := s; i < s+c.ways; i++ {
		if c.tags[i] == line {
			c.tags[i] = -1
			c.dirty[i] = false
			return
		}
	}
}
