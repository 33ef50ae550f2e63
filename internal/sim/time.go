// Package sim provides the simulated nanosecond clock, serially-reusable
// resources and run statistics. It is the timing substrate shared by the
// memory-system, network and machine simulators: all throughput figures
// in this repository are computed from simulated time, never from
// wall-clock time.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time int64

// String renders the time in a human-friendly unit.
func (t Time) String() string {
	switch {
	case t >= 1e9:
		return fmt.Sprintf("%.3fs", float64(t)/1e9)
	case t >= 1e6:
		return fmt.Sprintf("%.3fms", float64(t)/1e6)
	case t >= 1e3:
		return fmt.Sprintf("%.3fus", float64(t)/1e3)
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts simulated time to seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }
