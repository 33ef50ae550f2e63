// Package trace records and analyzes memory access traces. The paper
// (§3.1) contrasts its throughput-oriented model with "trace driven
// investigations of the cached memory system", the traditional approach
// to memory performance analysis; this package provides that
// traditional view — access-stream statistics, stride detection, page
// locality, working-set size — both as a baseline to validate the
// throughput model's assumptions (communication accesses have little
// temporal locality, §3.1) and as a diagnostic for the simulators.
package trace

import (
	"fmt"

	"ctcomm/internal/pattern"
)

// Event is one recorded access.
type Event struct {
	Addr     int64
	Write    bool
	Overhead bool
}

// Trace is a recorded access stream.
type Trace struct {
	Events []Event
}

// Record captures the accesses of a pattern stream (the same expansion
// the simulators execute).
func Record(st *pattern.Stream, write bool) *Trace {
	acc := st.Accesses(write)
	t := &Trace{Events: make([]Event, len(acc))}
	for i, a := range acc {
		t.Events[i] = Event{Addr: a.Addr, Write: a.Write, Overhead: a.Overhead}
	}
	return t
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.Events) }

// Stats summarizes a trace.
type Stats struct {
	Accesses  int
	Reads     int
	Writes    int
	Overheads int

	// UniqueWords is the working-set size in distinct 8-byte words.
	UniqueWords int
	// UniqueLines/UniquePages for the given line and page sizes.
	UniqueLines int
	UniquePages int

	// TemporalReuse is the fraction of accesses that touch a word seen
	// earlier in the trace — the paper's claim is that this is near
	// zero for communication access streams.
	TemporalReuse float64
	// SpatialLineReuse is the fraction of accesses whose line (but not
	// necessarily word) was touched before.
	SpatialLineReuse float64
	// PageLocality is the fraction of successive accesses that stay on
	// the same memory page (open-page hits under an ideal policy).
	PageLocality float64

	// DominantStride is the most common inter-access word distance and
	// its share of all transitions.
	DominantStride      int64
	DominantStrideShare float64
}

// Analyze computes trace statistics for the given cache-line and DRAM
// page sizes (bytes, powers of two).
func Analyze(t *Trace, lineBytes, pageBytes int) (Stats, error) {
	if lineBytes < 8 || lineBytes&(lineBytes-1) != 0 {
		return Stats{}, fmt.Errorf("trace: invalid line size %d", lineBytes)
	}
	if pageBytes < lineBytes || pageBytes&(pageBytes-1) != 0 {
		return Stats{}, fmt.Errorf("trace: invalid page size %d", pageBytes)
	}
	var s Stats
	words := make(map[int64]bool)
	lines := make(map[int64]bool)
	pages := make(map[int64]bool)
	strides := make(map[int64]int)
	var prevAddr int64
	var wordReuse, lineReuse, pageStay int
	for i, e := range t.Events {
		s.Accesses++
		if e.Write {
			s.Writes++
		} else {
			s.Reads++
		}
		if e.Overhead {
			s.Overheads++
		}
		w := e.Addr / 8
		l := e.Addr / int64(lineBytes)
		p := e.Addr / int64(pageBytes)
		if words[w] {
			wordReuse++
		}
		if lines[l] {
			lineReuse++
		}
		words[w] = true
		lines[l] = true
		pages[p] = true
		if i > 0 {
			if prevAddr/int64(pageBytes) == p {
				pageStay++
			}
			strides[w-prevAddr/8]++
		}
		prevAddr = e.Addr
	}
	s.UniqueWords = len(words)
	s.UniqueLines = len(lines)
	s.UniquePages = len(pages)
	if s.Accesses > 0 {
		s.TemporalReuse = float64(wordReuse) / float64(s.Accesses)
		s.SpatialLineReuse = float64(lineReuse) / float64(s.Accesses)
	}
	if s.Accesses > 1 {
		s.PageLocality = float64(pageStay) / float64(s.Accesses-1)
		best, bestN := int64(0), 0
		for st, n := range strides {
			if n > bestN || (n == bestN && st < best) {
				best, bestN = st, n
			}
		}
		s.DominantStride = best
		s.DominantStrideShare = float64(bestN) / float64(s.Accesses-1)
	}
	return s, nil
}
