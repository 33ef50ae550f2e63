package once

import (
	"sync"
	"sync/atomic"
	"testing"
)

// Concurrent callers of the same key share one computation; distinct
// keys compute independently (run under -race).
func TestMapComputesOncePerKey(t *testing.T) {
	var m Map[int, int]
	var calls [4]atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := g % len(calls)
			if v := m.Get(k, func() int { calls[k].Add(1); return 10 * k }); v != 10*k {
				t.Errorf("Get(%d) = %d, want %d", k, v, 10*k)
			}
		}(g)
	}
	wg.Wait()
	for k := range calls {
		if n := calls[k].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", k, n)
		}
	}
}
