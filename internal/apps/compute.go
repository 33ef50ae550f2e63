package apps

import "math"

// Compute-time estimates for the kernels' local phases. The paper's
// premise is that the local computation runs cache-friendly ("the 1D
// FFTs can be organized to run with locality out of caches", §1) while
// the awkward memory accesses concentrate in communication; these
// estimates let the experiments report what fraction of a kernel's
// time the communication step claims on a 1995-class node.

// DefaultMFLOPS is the sustained floating-point rate assumed for a
// 1995-class node on cache-blocked kernels (the 150 MHz Alpha 21064
// peaked at 150 MFLOPS; blocked kernels sustained a third of that).
const DefaultMFLOPS = 50.0

// TimeNs converts a flop count to nanoseconds at the given sustained
// MFLOPS rate (zero selects DefaultMFLOPS).
func TimeNs(flops, mflops float64) float64 {
	if mflops <= 0 {
		mflops = DefaultMFLOPS
	}
	return flops / mflops * 1e3
}

// FlopsFFT2D returns the flop count of the two local FFT phases of an
// n x n complex 2D FFT: 2 phases x n rows x 5 n log2(n) flops per
// radix-2 complex FFT.
func FlopsFFT2D(n int) float64 {
	return 2 * float64(n) * 5 * float64(n) * log2(float64(n))
}

// CommFraction returns the share of total kernel time spent in the
// communication step.
func CommFraction(commNs, computeNs float64) float64 {
	total := commNs + computeNs
	if total <= 0 {
		return 0
	}
	return commNs / total
}

func log2(x float64) float64 { return math.Log2(x) }
