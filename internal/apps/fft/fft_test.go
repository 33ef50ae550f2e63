package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"ctcomm/internal/comm"
	"ctcomm/internal/machine"
)

func randMatrix(n int, seed uint64) [][]complex128 {
	s := seed | 1
	next := func() float64 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		return float64((s*0x2545F4914F6CDD1D)>>11)/(1<<53) - 0.5
	}
	a := make([][]complex128, n)
	for i := range a {
		a[i] = make([]complex128, n)
		for j := range a[i] {
			a[i][j] = complex(next(), next())
		}
	}
	return a
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFFTMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		x := randMatrix(n, 7)[0][:n]
		want := DFT(x)
		got := append([]complex128(nil), x...)
		if err := FFT(got, false); err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT differs from DFT by %g", n, d)
		}
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 3, 6, 12} {
		if err := FFT(make([]complex128, n), false); err == nil {
			t.Errorf("FFT of length %d should fail", n)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		x := randMatrix(64, seed)[0]
		orig := append([]complex128(nil), x...)
		if err := FFT(x, false); err != nil {
			return false
		}
		if err := FFT(x, true); err != nil {
			return false
		}
		return maxDiff(x, orig) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// Energy is preserved up to the 1/n convention: sum|X|^2 = n*sum|x|^2.
	f := func(seed uint64) bool {
		x := randMatrix(32, seed)[0]
		var inEnergy float64
		for _, v := range x {
			inEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		if err := FFT(x, false); err != nil {
			return false
		}
		var outEnergy float64
		for _, v := range x {
			outEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(outEnergy-32*inEnergy) < 1e-6*(1+outEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	a := randMatrix(16, 3)
	tt := Transpose(Transpose(a))
	for i := range a {
		if maxDiff(a[i], tt[i]) != 0 {
			t.Fatal("double transpose is not identity")
		}
	}
}

func TestTransposeRectangular(t *testing.T) {
	a := [][]complex128{{1, 2, 3}, {4, 5, 6}}
	tr := Transpose(a)
	if len(tr) != 3 || len(tr[0]) != 2 || tr[2][1] != 6 || tr[0][1] != 4 {
		t.Errorf("bad transpose: %v", tr)
	}
	if Transpose(nil) != nil {
		t.Error("transpose of empty should be nil")
	}
}

// dft2D is the naive reference 2D transform: DFT of every row, then of
// every column.
func dft2D(a [][]complex128) [][]complex128 {
	rows := make([][]complex128, len(a))
	for i, r := range a {
		rows[i] = DFT(r)
	}
	t := Transpose(rows)
	for j, c := range t {
		t[j] = DFT(c)
	}
	return Transpose(t)
}

func TestDistributedTransposeCorrect(t *testing.T) {
	cfg := DistConfig{M: machine.T3D(), Style: comm.Chained, Nodes: 8}
	a := randMatrix(32, 5)
	out, rep, err := DistributedTranspose(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	want := Transpose(a)
	for i := range want {
		if maxDiff(out[i], want[i]) != 0 {
			t.Fatal("distributed transpose wrong")
		}
	}
	if rep.Messages != 7 {
		t.Errorf("messages = %d, want 7", rep.Messages)
	}
	// Each node sends 7 patches of (32/8)^2 complex = 16*16B.
	if rep.PayloadBytes != 7*16*16 {
		t.Errorf("payload = %d, want %d", rep.PayloadBytes, 7*16*16)
	}
}

func TestDistributedTransposeValidation(t *testing.T) {
	cfg := DistConfig{M: machine.T3D(), Style: comm.Chained, Nodes: 7}
	if _, _, err := DistributedTranspose(cfg, randMatrix(32, 1)); err == nil {
		t.Error("non-dividing node count should fail")
	}
	cfg.Nodes = 8
	if _, _, err := DistributedTranspose(cfg, [][]complex128{{1, 2}}); err == nil {
		t.Error("non-square matrix should fail")
	}
	if _, _, err := DistributedTranspose(cfg, nil); err == nil {
		t.Error("empty matrix should fail")
	}
}

func TestDistributed2DFFTCorrect(t *testing.T) {
	cfg := DistConfig{M: machine.T3D(), Style: comm.BufferPacking, Nodes: 8}
	a := randMatrix(16, 9)
	got, rep, err := Distributed2DFFT(cfg, a, false)
	if err != nil {
		t.Fatal(err)
	}
	want := dft2D(a)
	for i := range want {
		if d := maxDiff(got[i], want[i]); d > 1e-9 {
			t.Fatalf("row %d differs by %g", i, d)
		}
	}
	if rep.Messages == 0 || rep.ElapsedNs <= 0 {
		t.Errorf("empty comm report: %+v", rep)
	}
}

func TestChainedTransposeFasterOnT3D(t *testing.T) {
	// Table 6: chained transpose 25.2 MB/s vs buffer-packing 20.0.
	a := randMatrix(256, 13)
	packedCfg := DistConfig{M: machine.T3D(), Style: comm.BufferPacking, Nodes: 64}
	_, packed, err := DistributedTranspose(packedCfg, a)
	if err != nil {
		t.Fatal(err)
	}
	chainedCfg := DistConfig{M: machine.T3D(), Style: comm.Chained, Nodes: 64}
	_, chained, err := DistributedTranspose(chainedCfg, a)
	if err != nil {
		t.Fatal(err)
	}
	if chained.MBps() <= packed.MBps() {
		t.Errorf("chained transpose %.1f <= packed %.1f MB/s", chained.MBps(), packed.MBps())
	}
}

func TestStridedLoadsOrientation(t *testing.T) {
	// §5.2: on the T3D the 1Qn orientation (strided stores) beats nQ1.
	a := randMatrix(256, 13)
	stores := DistConfig{M: machine.T3D(), Style: comm.Chained, Nodes: 64}
	_, sRep, err := DistributedTranspose(stores, a)
	if err != nil {
		t.Fatal(err)
	}
	loads := DistConfig{M: machine.T3D(), Style: comm.Chained, Nodes: 64, StridedLoads: true}
	_, lRep, err := DistributedTranspose(loads, a)
	if err != nil {
		t.Fatal(err)
	}
	if sRep.MBps() < lRep.MBps() {
		t.Errorf("T3D: strided-store transpose %.1f < strided-load %.1f MB/s",
			sRep.MBps(), lRep.MBps())
	}
}
