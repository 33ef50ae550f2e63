package serve

import (
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
//
// Beside each value an entry may hold, once a point request has hit
// it, the exact 200 body that request was answered with, and one
// request alias: the kind and raw request bytes that named the entry.
// A later request with the same bytes is answered by one alias lookup
// and one write of the stored body, with no JSON work at all.
type lruCache struct {
	mu         sync.Mutex
	cap        int
	maxBytes   int64
	bytes      int64     // approximate resident size of all entries
	head, tail *lruEntry // head = most recent
	items      map[string]*lruEntry
	aliases    map[string]*lruEntry // kind + "\n" + raw request body -> entry
}

// lruEntry is one cached answer. key and val never change once the
// entry is linked: refreshing a key links a new entry in its place, so
// an entry pointer identifies one value and its stored body can never
// belong to another.
type lruEntry struct {
	key  string
	val  interface{}
	size int64     // approxSize(key, val)
	hot  *hotEntry // what point hits left on the entry; nil until the first

	prev, next *lruEntry
}

// hotEntry is what point hits leave on an entry. It is a separate
// allocation so that the many cold entries that are never hit carry one
// pointer for it, not its fields.
type hotEntry struct {
	body  []byte // encoded 200 body, set once; nil until stored
	alias string // the one request alias naming the entry, or ""
}

// hotOverhead is the fixed charge for an entry's hotEntry: the struct
// and, once it holds an alias, the alias map slot.
const hotOverhead = 64

// cost is the entry's whole charge against the byte bound.
func (e *lruEntry) cost() int64 {
	n := e.size
	if h := e.hot; h != nil {
		n += hotOverhead + int64(len(h.body)+len(h.alias))
	}
	return n
}

// body returns the entry's stored body, or nil.
func (e *lruEntry) body() []byte {
	if e.hot == nil {
		return nil
	}
	return e.hot.body
}

// alias returns the request alias naming the entry, or "".
func (e *lruEntry) alias() string {
	if e.hot == nil {
		return ""
	}
	return e.hot.alias
}

func newLRUCache(capacity int, maxBytes int64) *lruCache {
	return &lruCache{
		cap:      capacity,
		maxBytes: maxBytes,
		items:    make(map[string]*lruEntry, capacity),
		aliases:  map[string]*lruEntry{},
	}
}

// approxSize estimates the resident bytes of one cache entry: a fixed
// per-entry overhead for the struct itself and the map slot, plus the
// answer's own variable-size fields as its query kind sizes them
// (query.Kind.Size). Exactness does not matter — the point is that the
// estimate grows linearly with what actually grows.
func approxSize(key string, val interface{}) int64 {
	const entryOverhead = 256
	n := int64(entryOverhead + len(key))
	if k := query.KindOf(val); k != nil {
		return n + k.Size(val)
	}
	return n + 512 // unknown value type: assume something modest
}

// pushFront links e as the most recent entry.
func (c *lruCache) pushFront(e *lruEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

// unlink removes e from the recency list.
func (c *lruCache) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch makes e the most recent entry.
func (c *lruCache) touch(e *lruEntry) {
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

// live reports whether e is still the entry its key maps to.
func (c *lruCache) live(e *lruEntry) bool { return c.items[e.key] == e }

// remove drops e and its alias from the cache.
func (c *lruCache) remove(e *lruEntry) {
	c.unlink(e)
	delete(c.items, e.key)
	if a := e.alias(); a != "" {
		delete(c.aliases, a)
	}
	c.bytes -= e.cost()
}

// evict drops least recently used entries while either bound (entry
// count, approximate bytes) is exceeded.
func (c *lruCache) evict() {
	for c.tail != nil && (len(c.items) > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		c.remove(c.tail)
	}
}

// entry returns the live entry for key, refreshing its recency, or nil.
func (c *lruCache) entry(key string) *lruEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.items[key]
	if e != nil {
		c.touch(e)
	}
	return e
}

// aliased returns the entry the alias names and its stored body (nil
// when none is stored yet), refreshing its recency. Looking the alias
// up as string(alias) does not allocate.
func (c *lruCache) aliased(alias []byte) (*lruEntry, []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.aliases[string(alias)]
	if e == nil {
		return nil, nil
	}
	c.touch(e)
	return e, e.body()
}

// claim records alias as the one request alias naming e, replacing
// any earlier one, and returns e's stored body (nil when none is stored
// yet). A nil alias (a body whose read failed) or a dead entry (evicted
// or refreshed meanwhile) records nothing.
func (c *lruCache) claim(e *lruEntry, alias []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if alias == nil || !c.live(e) || e.alias() == string(alias) {
		return e.body()
	}
	c.bytes -= e.cost()
	if e.hot == nil {
		e.hot = &hotEntry{}
	} else if e.hot.alias != "" {
		delete(c.aliases, e.hot.alias)
	}
	// No other live entry can hold this alias: the same bytes sent to
	// the same kind always decode to the same fingerprint.
	e.hot.alias = string(alias)
	c.aliases[e.hot.alias] = e
	c.bytes += e.cost()
	c.evict()
	return e.hot.body
}

// storeBody stores body as e's encoded answer and returns the body to
// answer with. The body is set once: when concurrent first hits race,
// the first to store wins and the others answer with its bytes. It is
// not stored on a dead entry or when the entry would no longer fit the
// byte bound with it; storing it evicts least recently used entries
// while the bound is exceeded.
func (c *lruCache) storeBody(e *lruEntry, body []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := e.body(); b != nil {
		return b
	}
	if !c.live(e) || (c.maxBytes > 0 && e.size+hotOverhead+int64(len(body)+len(e.alias())) > c.maxBytes) {
		return body
	}
	c.bytes -= e.cost()
	if e.hot == nil {
		e.hot = &hotEntry{}
	}
	e.hot.body = body
	c.bytes += e.cost()
	c.evict()
	return body
}

// add inserts or refreshes a value, evicting least recently used
// entries while either bound is exceeded. A refresh links a new entry
// in place of the old one: the stored body belonged to the old value
// and is dropped, while the alias carries over (the same request bytes
// still name the same fingerprint). A single value larger than the
// whole byte budget is not cached at all: admitting it would evict
// everything else and then still sit over the cap.
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
	e := &lruEntry{key: key, val: val, size: size}
	if old := c.items[key]; old != nil {
		alias := old.alias()
		c.remove(old)
		if alias != "" {
			e.hot = &hotEntry{alias: alias}
			c.aliases[alias] = e
		}
	}
	c.items[key] = e
	c.pushFront(e)
	c.bytes += e.cost()
	c.evict()
}

// len returns the current entry count.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// residentBytes returns the approximate resident size of all entries.
func (c *lruCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
