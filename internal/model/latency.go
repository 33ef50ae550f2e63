package model

import (
	"fmt"
)

// Hockney characterization of a communication operation. The
// copy-transfer model is deliberately throughput-only (paper §3.1: for
// large collections "the transfer mainly depends on the maximal
// throughput ... rather than on the latency and overhead for
// transferring a single element"); for finite messages the classic
// r∞/n½ parameterization of the era closes the gap:
//
//	t(n)    = t0 + n / rInf
//	rate(n) = rInf · n / (n + n½),  n½ = t0 · rInf
//
// where rInf is the asymptotic rate and n½ the half-performance message
// length — the block size at which half of rInf is reached. Figure 1's
// curves are exactly this shape.
type RateCurve struct {
	// RInfMBps is the asymptotic throughput.
	RInfMBps float64
	// StartupNs is the per-message constant time t0.
	StartupNs float64
}

// NHalfBytes returns the half-performance message length n½ in bytes.
func (c RateCurve) NHalfBytes() float64 {
	// n½ = t0 · rInf ; MB/s · ns = 1e-3 bytes.
	return c.StartupNs * c.RInfMBps * 1e-3
}

// FitRateCurve fits (rInf, t0) to measured (bytes, MB/s) samples by the
// least-squares line through the equivalent time form
// t = t0 + bytes/rInf. At least two distinct sizes are required.
func FitRateCurve(bytes []int64, mbps []float64) (RateCurve, error) {
	if len(bytes) != len(mbps) || len(bytes) < 2 {
		return RateCurve{}, fmt.Errorf("model: need >= 2 paired samples, got %d/%d", len(bytes), len(mbps))
	}
	// Convert each sample to (x=bytes, y=time ns) and fit y = a + b x.
	var sx, sy, sxx, sxy float64
	n := float64(len(bytes))
	for i := range bytes {
		if bytes[i] <= 0 || mbps[i] <= 0 {
			return RateCurve{}, fmt.Errorf("model: non-positive sample at %d", i)
		}
		x := float64(bytes[i])
		y := x * 1e3 / mbps[i]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return RateCurve{}, fmt.Errorf("model: need at least two distinct sizes")
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	if b <= 0 {
		return RateCurve{}, fmt.Errorf("model: fitted non-positive per-byte time %g", b)
	}
	if a < 0 {
		a = 0
	}
	return RateCurve{RInfMBps: 1e3 / b, StartupNs: a}, nil
}
