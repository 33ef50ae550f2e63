package law

import (
	"reflect"
	"testing"
)

// affine is a toy family over integer results: fit at 2 and 3
// periods, verify at 4 and at the far probe 9.
var affine = Family[int64]{
	C1:      2,
	Verify:  []int64{4, 9},
	Predict: func(r1, r2, n int64) int64 { return r1 + n*(r2-r1) },
	Equal:   func(pred, probe int64) bool { return pred == probe },
}

// line returns a probe of 5 + 3·words that records every word count it
// is asked for and answers bad instead at the word count skew.
func line(probed *[]int64, skew, bad int64) func(int64) (int64, bool) {
	return func(words int64) (int64, bool) {
		*probed = append(*probed, words)
		if words == skew {
			return bad, true
		}
		return 5 + 3*words, true
	}
}

func TestFitAffine(t *testing.T) {
	var probed []int64
	l := affine.Fit(10, 3, line(&probed, -1, 0))
	if l == nil {
		t.Fatal("an affine probe sequence must fit")
	}
	if want := []int64{23, 33, 43, 93}; !reflect.DeepEqual(probed, want) {
		t.Errorf("probed %v, want %v", probed, want)
	}
	if got := l.At(1003); got != 5+3*1003 {
		t.Errorf("At(1003) = %d, want %d", got, 5+3*1003)
	}
}

// A sequence affine on the fit and near probes but not at the far probe
// is rejected, and so is a pair the family's Pair judges unfit.
func TestFitRejectsFarMismatch(t *testing.T) {
	var probed []int64
	if affine.Fit(10, 3, line(&probed, 93, 5+3*93+1)) != nil {
		t.Error("a far-probe mismatch must reject the fit")
	}
	rejecting := affine
	rejecting.Pair = func(r1, r2 int64) bool { return false }
	if rejecting.Fit(10, 3, line(&probed, -1, 0)) != nil {
		t.Error("Pair must be able to reject a fit")
	}
	if affine.Fit(10, 3, line(&probed, 43, 0)) != nil {
		t.Error("a near-probe mismatch must reject the fit")
	}
	if affine.Fit(10, 10, line(&probed, -1, 0)) != nil || affine.Fit(10, -1, line(&probed, -1, 0)) != nil {
		t.Error("a residue outside [0, period) must not fit")
	}
}

// certified is affine with a certificate: the authority proves its
// recurrence at period 10 only, so a first probe at that period
// advances by one period without probing.
var certified = func() Family[int64] {
	f := affine
	f.Next = func(r1, period int64) (int64, bool) { return r1 + 3*period, period == 10 }
	return f
}()

// A certified first probe admits the law alone; without a certificate
// for the law's period the first probe is reused and the rest of the
// contract runs; an out-of-range residue probes nothing.
func TestFitCertified(t *testing.T) {
	var probed []int64
	l := certified.Fit(10, 3, line(&probed, -1, 0))
	if l == nil || !reflect.DeepEqual(probed, []int64{23}) {
		t.Fatalf("certified fit probed %v (law %v), want only [23]", probed, l != nil)
	}
	if got := l.At(1003); got != 5+3*1003 {
		t.Errorf("At(1003) = %d, want %d", got, 5+3*1003)
	}
	if l.Covers(13) || !l.Covers(23) {
		t.Error("a certified law must cover from the first fit probe on, as a probed one does")
	}
	probed = nil
	if certified.Fit(20, 3, line(&probed, -1, 0)) == nil || !reflect.DeepEqual(probed, []int64{43, 63, 83, 183}) {
		t.Errorf("uncertified period probed %v, want [43 63 83 183]", probed)
	}
	probed = nil
	if certified.Fit(20, 3, line(&probed, 183, 0)) != nil {
		t.Error("without a certificate a far-probe mismatch must still reject the fit")
	}
	probed = nil
	if certified.Fit(10, 10, line(&probed, -1, 0)) != nil || len(probed) != 0 {
		t.Errorf("residue == period probed %v, want no fit and no probe", probed)
	}
	rejecting := certified
	rejecting.Pair = func(r1, r2 int64) bool { return false }
	if rejecting.Fit(10, 3, line(&probed, -1, 0)) != nil {
		t.Error("Pair must judge a certified pair too")
	}
}

func TestCoverageBoundaries(t *testing.T) {
	var probed []int64
	l := affine.Fit(10, 3, line(&probed, -1, 0))
	for _, c := range []struct {
		words int64
		want  bool
	}{
		{23, true},  // exactly C1 periods past the residue
		{13, false}, // one period short of the first fit probe
		{24, false}, // wrong residue class
		{-7, false},
	} {
		if got := l.Covers(c.words); got != c.want {
			t.Errorf("Covers(%d) = %t, want %t", c.words, got, c.want)
		}
	}
	unit := affine.Fit(1, 0, line(&probed, -1, 0))
	if !unit.Covers(MaxWords) || unit.Covers(MaxWords+1) {
		t.Errorf("Covers(MaxWords) = %t, Covers(MaxWords+1) = %t; want true, false",
			unit.Covers(MaxWords), unit.Covers(MaxWords+1))
	}
	if !affine.Reaches(10, MaxWords) || affine.Reaches(1, MaxWords+1) || affine.Reaches(10, 19) {
		t.Error("Reaches must admit MaxWords and refuse MaxWords+1 and counts below the first fit probe")
	}
}

// TestFitCounts: a registered family counts every fit it probes for,
// by outcome, and the certified part of its fitted laws; an
// out-of-range residue probes nothing and counts nothing; an
// unregistered family counts nothing.
func TestFitCounts(t *testing.T) {
	f := Register("test-affine", certified)
	count := func() FitCount {
		for _, c := range FitCounts() {
			if c.Family == "test-affine" {
				return c
			}
		}
		t.Fatal("registered family missing from FitCounts")
		return FitCount{}
	}
	if c := count(); c.Fitted != 0 || c.Certified != 0 || c.Rejected != 0 {
		t.Fatalf("fresh family counts %+v, want zeros", c)
	}
	var probed []int64
	f.Fit(20, 3, line(&probed, -1, 0))         // fits, uncertified
	f.Fit(10, 3, line(&probed, -1, 0))         // fits, certified
	f.Fit(20, 3, line(&probed, 183, 0))        // far-probe mismatch
	f.Fit(10, 10, line(&probed, -1, 0))        // residue out of range
	certified.Fit(10, 3, line(&probed, -1, 0)) // unregistered
	if c := count(); c.Fitted != 2 || c.Certified != 1 || c.Rejected != 1 {
		t.Errorf("counts %+v, want 2 fitted, 1 of them certified, and 1 rejected", c)
	}
}

func TestLCM(t *testing.T) {
	for _, c := range [][3]int64{{0, 0, 0}, {0, 512, 512}, {1024, 0, 1024}, {512, 1024, 1024}, {4096, 3072, 12288}, {7, 5, 35}} {
		if got := LCM(c[0], c[1]); got != c[2] {
			t.Errorf("LCM(%d, %d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}
