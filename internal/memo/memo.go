// Package memo provides Table, a concurrent memo table whose size is
// bounded by emptying it when it fills.
package memo

import "sync"

// Max bounds every Table. A full table is emptied and refilled, so
// memory stays bounded under any key stream while a working set below
// Max stays resident.
const Max = 4096

// Table maps keys to values computed elsewhere: Get is one read-locked
// map lookup and allocates nothing, and Put stores a value, emptying
// the table first when it holds Max entries. Unlike once.Map, two
// callers that miss the same key may both compute it, so a Table suits
// values that are cheap to recompute and equal however computed. The
// zero Table is ready to use; a Table must not be copied after first
// use.
type Table[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]V
}

// Get returns the value stored for k, if any.
func (t *Table[K, V]) Get(k K) (V, bool) {
	t.mu.RLock()
	v, ok := t.m[k]
	t.mu.RUnlock()
	return v, ok
}

// Put stores v for k.
func (t *Table[K, V]) Put(k K, v V) {
	t.mu.Lock()
	if t.m == nil || len(t.m) >= Max {
		t.m = make(map[K]V)
	}
	t.m[k] = v
	t.mu.Unlock()
}
