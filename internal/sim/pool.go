package sim

import (
	"runtime"
	"sync"
)

// Pool is a bounded free list of reusable simulators, keyed by
// geometry: the sizes that fix a simulator's buffers (cache lines and
// queue depths of a memory system, links and ports of a network). A
// caller takes a simulator of its geometry with Get, re-applies its own
// configuration to it, runs, and hands it back with Put.
//
// Retention is bounded twice: at most GOMAXPROCS idle simulators per
// geometry (the default serve worker count, so the simulators of one
// round of concurrent runs), and at most poolKeys geometries. What
// does not fit is dropped for the garbage collector. Unlike a
// sync.Pool, what the pool retains is bounded and the same after every
// collection.
//
// Get and Put are safe for concurrent use and allocate nothing once a
// geometry's free list exists.
type Pool[K comparable, T any] struct {
	mu      sync.Mutex
	idle    map[K][]T
	perKey  int
	maxKeys int
}

// poolKeys bounds the geometries a pool keeps: twice the four machine
// profiles' four.
const poolKeys = 8

// NewPool returns an empty pool.
func NewPool[K comparable, T any]() *Pool[K, T] {
	return newPool[K, T](runtime.GOMAXPROCS(0), poolKeys)
}

func newPool[K comparable, T any](perKey, maxKeys int) *Pool[K, T] {
	return &Pool[K, T]{idle: make(map[K][]T), perKey: max(perKey, 1), maxKeys: maxKeys}
}

// Get removes and returns an idle value of key, or reports false when
// the pool holds none.
func (p *Pool[K, T]) Get(key K) (v T, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.idle[key]
	if len(free) == 0 {
		return v, false
	}
	v = free[len(free)-1]
	var zero T
	free[len(free)-1] = zero
	p.idle[key] = free[:len(free)-1]
	return v, true
}

// Put retains v as an idle value of key, unless key already holds
// perKey idle values or the pool already holds maxKeys other keys.
func (p *Pool[K, T]) Put(key K, v T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	free, ok := p.idle[key]
	if !ok && len(p.idle) >= p.maxKeys || len(free) >= p.perKey {
		return
	}
	if free == nil {
		free = make([]T, 0, p.perKey)
	}
	p.idle[key] = append(free, v)
}
