package sim

import (
	"sync"
	"testing"
)

func TestStatsNilSafe(t *testing.T) {
	var s *Stats
	s.RecordEvents(10, 100) // must not panic
	s.RecordAccesses(10, 100)
	if s.Events() != 0 || s.Accesses() != 0 || s.SimTime() != 0 {
		t.Error("nil stats must read as zero")
	}
}

func TestStatsAccumulates(t *testing.T) {
	s := new(Stats)
	s.RecordEvents(5, 100)
	s.RecordEvents(7, 0)
	s.RecordAccesses(3, 49.6)
	if s.Events() != 12 {
		t.Errorf("Events = %d, want 12", s.Events())
	}
	if s.Accesses() != 3 {
		t.Errorf("Accesses = %d, want 3", s.Accesses())
	}
	if s.SimTime() != 150 { // 100 + round(49.6)
		t.Errorf("SimTime = %d, want 150", s.SimTime())
	}
}

// Stats must be safe to share between engines running on different
// goroutines — the parallel experiment runner does exactly that when an
// experiment itself fans out (and -race verifies it here).
func TestStatsConcurrent(t *testing.T) {
	s := new(Stats)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.RecordEvents(1, 2)
				s.RecordAccesses(1, 1)
			}
		}()
	}
	wg.Wait()
	if s.Events() != 8000 || s.Accesses() != 8000 || s.SimTime() != 24000 {
		t.Errorf("concurrent totals wrong: events=%d accesses=%d sim=%d",
			s.Events(), s.Accesses(), s.SimTime())
	}
}
