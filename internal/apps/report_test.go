package apps

import "testing"

func TestCommReportMBps(t *testing.T) {
	r := CommReport{PayloadBytes: 1000, ElapsedNs: 1000}
	if r.MBps() != 1000 {
		t.Errorf("MBps = %v, want 1000", r.MBps())
	}
	if (CommReport{}).MBps() != 0 {
		t.Error("empty report should be 0 MB/s")
	}
}

func TestCommReportAdd(t *testing.T) {
	a := CommReport{Messages: 1, PayloadBytes: 10, ElapsedNs: 100}
	b := CommReport{Messages: 2, PayloadBytes: 20, ElapsedNs: 200}
	a.Add(b)
	if a.Messages != 3 || a.PayloadBytes != 30 || a.ElapsedNs != 300 {
		t.Errorf("Add result wrong: %+v", a)
	}
}

func TestComputeEstimates(t *testing.T) {
	// 1024^2 2D FFT: 2 * 1024 * 5 * 1024 * 10 flops ~ 105 Mflops.
	flops := FlopsFFT2D(1024)
	if flops < 100e6 || flops > 110e6 {
		t.Errorf("FFT2D flops = %g, want ~105e6", flops)
	}
	// At 50 MFLOPS that is ~2.1 seconds across the machine... per node
	// on 64 nodes it is ~33 ms of compute.
	ns := TimeNs(flops/64, 0)
	if ns < 30e6 || ns > 36e6 {
		t.Errorf("per-node FFT compute = %g ns", ns)
	}
	if CommFraction(1, 3) != 0.25 {
		t.Error("CommFraction wrong")
	}
	if CommFraction(0, 0) != 0 {
		t.Error("empty CommFraction should be 0")
	}
}

func TestCommunicationIsSubstantialForTranspose(t *testing.T) {
	// The paper's motivating premise: even with the FFT's O(n^2 log n)
	// compute, the transpose communication claims a substantial share
	// of the kernel at 1995 rates. Per node on 64 nodes: compute
	// ~33 ms; communication of 2 transposes ~ 2 * 16 MB / 64 / 25 MB/s
	// ~ 20 ms -> fraction ~0.4.
	computeNs := TimeNs(FlopsFFT2D(1024)/64, 0)
	perNodeBytes := 2.0 * 16e6 / 64 // two transposes of a 16 MB array
	commNs := perNodeBytes / 25.0 * 1e3
	frac := CommFraction(commNs, computeNs)
	if frac < 0.2 || frac > 0.6 {
		t.Errorf("transpose comm fraction = %.2f, expected substantial (0.2-0.6)", frac)
	}
}
