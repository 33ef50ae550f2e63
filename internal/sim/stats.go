package sim

import "sync/atomic"

// Stats accumulates observability counters across simulator runs: how
// many discrete events the network simulator dispatched, how many
// memory accesses the analytic memory simulators performed, and how
// much simulated time elapsed in total. A single Stats is typically
// attached to every simulator instance belonging to one experiment, so
// the experiment runner can attribute work per experiment even when
// many experiments execute concurrently.
//
// All methods are safe for concurrent use and nil-safe: recording into
// a nil *Stats is a no-op, so simulators can record unconditionally.
type Stats struct {
	events   atomic.Int64
	accesses atomic.Int64
	simNs    atomic.Int64
}

// RecordEvents adds n dispatched events and the simulated time elapsed
// while dispatching them.
func (s *Stats) RecordEvents(n int64, elapsed Time) {
	if s == nil {
		return
	}
	s.events.Add(n)
	if elapsed > 0 {
		s.simNs.Add(int64(elapsed))
	}
}

// RecordAccesses adds n simulated memory accesses and the simulated
// nanoseconds they took.
func (s *Stats) RecordAccesses(n int64, elapsedNs float64) {
	if s == nil {
		return
	}
	s.accesses.Add(n)
	if elapsedNs > 0 {
		s.simNs.Add(int64(elapsedNs + 0.5))
	}
}

// Events returns the total number of dispatched events recorded.
func (s *Stats) Events() int64 {
	if s == nil {
		return 0
	}
	return s.events.Load()
}

// Accesses returns the total number of memory accesses recorded.
func (s *Stats) Accesses() int64 {
	if s == nil {
		return 0
	}
	return s.accesses.Load()
}

// SimTime returns the accumulated simulated time. Because independent
// simulator runs each start their clock near zero, this is a measure of
// total simulated work, not a single timeline position.
func (s *Stats) SimTime() Time {
	if s == nil {
		return 0
	}
	return Time(s.simNs.Load())
}
