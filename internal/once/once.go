// Package once provides a concurrent memo map whose value for each key
// is computed exactly once.
package once

import "sync"

// Map memoizes one value per key. Concurrent callers asking for the
// same key share a single computation, and the map's lock is never
// held while a value is computed, so a slow computation for one key
// does not stall callers of another. The zero Map is ready to use; a
// Map must not be copied after first use.
type Map[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*entry[V]
}

type entry[V any] struct {
	once sync.Once
	v    V
}

// Get returns the value for k, calling f to compute it if no caller
// has computed k before. Exactly one f runs per key: callers that
// arrive while it runs wait for it and receive its value. f does not
// escape, so a hit allocates nothing.
func (m *Map[K, V]) Get(k K, f func() V) V {
	m.mu.Lock()
	e, ok := m.m[k]
	if !ok {
		if m.m == nil {
			m.m = map[K]*entry[V]{}
		}
		e = &entry[V]{}
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.v = f() })
	return e.v
}
