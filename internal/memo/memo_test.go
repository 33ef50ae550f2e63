package memo

import (
	"sync"
	"testing"
)

// A full table empties before it stores, so it never holds more than
// Max entries, and what it stored since is found again.
func TestTableBounded(t *testing.T) {
	var tb Table[int, int]
	for k := 0; k < 3*Max+5; k++ {
		tb.Put(k, 2*k)
		if n := len(tb.m); n > Max {
			t.Fatalf("after %d puts the table holds %d entries, want at most %d", k+1, n, Max)
		}
		if v, ok := tb.Get(k); !ok || v != 2*k {
			t.Fatalf("Get(%d) = %d, %v right after Put", k, v, ok)
		}
	}
	if n := len(tb.m); n != 5 {
		t.Errorf("table holds %d entries, want the 5 stored since it last emptied", n)
	}
	if _, ok := tb.Get(0); ok {
		t.Error("an entry stored before the table emptied is still found")
	}
}

// A hit is one map lookup and allocates nothing.
func TestTableGetAllocationFree(t *testing.T) {
	var tb Table[uint64, uint64]
	tb.Put(7, 11)
	if n := testing.AllocsPerRun(1000, func() {
		if v, ok := tb.Get(7); !ok || v != 11 {
			t.Fatal("lost the stored value")
		}
	}); n != 0 {
		t.Errorf("Get allocates %v times, want 0", n)
	}
}

// Concurrent readers and writers, across the table emptying (run
// under -race).
func TestTableConcurrent(t *testing.T) {
	var tb Table[int, int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < Max; i++ {
				k := g*Max + i
				tb.Put(k, k)
				if v, ok := tb.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(tb.m); n > Max {
		t.Errorf("table holds %d entries, want at most %d", n, Max)
	}
}
