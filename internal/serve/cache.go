package serve

import (
	"container/list"
	"sync"

	"ctcomm/internal/query"
)

// lruCache is an LRU over canonical request fingerprints, bounded both
// by entry count and by approximate resident bytes: entry counts alone
// cannot stop a burst of large rendered plan texts (or sweep-warmed
// responses) from blowing memory. Values are immutable response
// structs, so a hit can hand out the stored value without copying. The
// zero capacity disables caching; maxBytes <= 0 disables the byte
// bound.
type lruCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	bytes    int64      // approximate resident size of all entries
	ll       *list.List // front = most recent
	items    map[string]*list.Element
}

type lruEntry struct {
	key  string
	val  interface{}
	size int64
}

func newLRUCache(capacity int, maxBytes int64) *lruCache {
	return &lruCache{
		cap:      capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// approxSize estimates the resident bytes of one cache entry: a fixed
// per-entry overhead for the struct itself, the map slot and the list
// element, plus the answer's own variable-size fields as its query kind
// sizes them (query.Kind.Size). Exactness does not matter — the point
// is that the estimate grows linearly with what actually grows.
func approxSize(key string, val interface{}) int64 {
	const entryOverhead = 256
	n := int64(entryOverhead + len(key))
	if k := query.KindOf(val); k != nil {
		return n + k.Size(val)
	}
	return n + 512 // unknown value type: assume something modest
}

// get returns the cached value and whether it was present, refreshing
// its recency.
func (c *lruCache) get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// add inserts or refreshes a value, evicting least recently used
// entries while either bound (entry count, approximate bytes) is
// exceeded. A single value larger than the whole byte budget is not
// cached at all: admitting it would evict everything else and then
// still sit over the cap.
func (c *lruCache) add(key string, val interface{}) {
	if c.cap <= 0 {
		return
	}
	size := approxSize(key, val)
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		c.bytes += size - e.size
		e.val, e.size = val, size
	} else {
		c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.ll.Len() > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes) {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*lruEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.bytes -= e.size
	}
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// residentBytes returns the approximate resident size of all entries.
func (c *lruCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
