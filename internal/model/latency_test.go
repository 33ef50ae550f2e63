package model

import (
	"math"
	"testing"
	"testing/quick"
)

// rate is the throughput the curve stands for: n bytes take
// t0 + n/rInf.
func rate(c RateCurve, bytes int64) float64 {
	return float64(bytes) * 1e3 / (c.StartupNs + float64(bytes)*1e3/c.RInfMBps)
}

// relErr is the curve's maximum relative rate error over the samples.
func relErr(c RateCurve, bytes []int64, mbps []float64) float64 {
	worst := 0.0
	for i := range bytes {
		if e := math.Abs(rate(c, bytes[i])-mbps[i]) / mbps[i]; e > worst {
			worst = e
		}
	}
	return worst
}

func TestRateCurveBasics(t *testing.T) {
	c := RateCurve{RInfMBps: 100, StartupNs: 10000} // 100 MB/s, 10 us startup
	// n½ = t0 * rInf = 10000 ns * 100 MB/s = 1e6 ns·B/ms ... = 1000 B.
	if got := c.NHalfBytes(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("n½ = %v, want 1000", got)
	}
	// At n = n½ the rate is half of rInf.
	if got := rate(c, 1000); math.Abs(got-50) > 1e-9 {
		t.Errorf("rate(n½) = %v, want 50", got)
	}
}

func TestFitRateCurveExact(t *testing.T) {
	truth := RateCurve{RInfMBps: 80, StartupNs: 25000}
	sizes := []int64{128, 1024, 8192, 65536, 1 << 20}
	rates := make([]float64, len(sizes))
	for i, n := range sizes {
		rates[i] = rate(truth, n)
	}
	fit, err := FitRateCurve(sizes, rates)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.RInfMBps-80)/80 > 1e-6 {
		t.Errorf("rInf = %v, want 80", fit.RInfMBps)
	}
	if math.Abs(fit.StartupNs-25000)/25000 > 1e-6 {
		t.Errorf("t0 = %v, want 25000", fit.StartupNs)
	}
	if e := relErr(fit, sizes, rates); e > 1e-9 {
		t.Errorf("rel err = %v", e)
	}
}

func TestFitRateCurveValidation(t *testing.T) {
	if _, err := FitRateCurve([]int64{1}, []float64{1}); err == nil {
		t.Error("single sample should fail")
	}
	if _, err := FitRateCurve([]int64{8, 8}, []float64{1, 1}); err == nil {
		t.Error("identical sizes should fail")
	}
	if _, err := FitRateCurve([]int64{8, -1}, []float64{1, 1}); err == nil {
		t.Error("negative size should fail")
	}
}

// Property: fitting exact curve samples recovers the curve.
func TestFitRoundTripProperty(t *testing.T) {
	f := func(rRaw, tRaw uint16) bool {
		truth := RateCurve{RInfMBps: float64(rRaw%500) + 1, StartupNs: float64(tRaw) * 10}
		sizes := []int64{64, 4096, 1 << 18}
		rates := make([]float64, len(sizes))
		for i, n := range sizes {
			rates[i] = rate(truth, n)
		}
		fit, err := FitRateCurve(sizes, rates)
		if err != nil {
			return false
		}
		return relErr(fit, sizes, rates) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
